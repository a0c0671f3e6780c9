package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fdw/internal/core/atomicfile"
	"fdw/internal/expt"
	"fdw/internal/faults"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

// fakeSource is a scripted campaign: fixed cell list, per-cell
// simulated durations, and an invocation counter per cell. Cells in
// vary return different payload bytes on every invocation — the
// nondeterministic campaign the digest arbitration exists to catch.
type fakeSource struct {
	ids  []string
	durs map[string]sim.Time
	runs map[string]int
	vary map[string]bool
}

func newFakeSource(durs ...sim.Time) *fakeSource {
	f := &fakeSource{durs: map[string]sim.Time{}, runs: map[string]int{}, vary: map[string]bool{}}
	for i, d := range durs {
		id := fmt.Sprintf("cell%02d", i)
		f.ids = append(f.ids, id)
		f.durs[id] = d
	}
	return f
}

func (f *fakeSource) Name() string        { return "fake" }
func (f *fakeSource) Fingerprint() string { return "fakefp" }
func (f *fakeSource) CellIDs() []string   { return f.ids }

func (f *fakeSource) RunCell(id string) (expt.CellRecord, error) {
	if _, ok := f.durs[id]; !ok {
		return expt.CellRecord{}, fmt.Errorf("fake: unknown cell %q", id)
	}
	f.runs[id]++
	payload := fmt.Sprintf(`{"id":%q}`, id)
	if f.vary[id] {
		payload = fmt.Sprintf(`{"id":%q,"run":%d}`, id, f.runs[id])
	}
	raw := json.RawMessage(payload)
	return expt.CellRecord{ID: id, Result: raw, Digest: digestOf(raw), SimEnd: f.durs[id]}, nil
}

// digestOf mirrors the manifest cell digest (FNV-1a64 of the payload)
// so fake records survive bundle validation.
func digestOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func mustComplete(t *testing.T, f *fakeSource, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Records) != len(f.ids) {
		t.Fatalf("%d records for %d cells", len(res.Records), len(f.ids))
	}
	for _, id := range f.ids {
		if _, ok := res.Records[id]; !ok {
			t.Fatalf("cell %q missing from ledger", id)
		}
	}
}

func TestSchedConfigValidate(t *testing.T) {
	dir := t.TempDir()
	src := newFakeSource(100)
	bad := []Config{
		{Workers: 0, Dir: dir},
		{Workers: 2, Dir: ""},
		{Workers: 2, Dir: dir, MaxCells: -1},
		{Workers: 2, Dir: dir, Plan: faults.WorkerPlan{Crashes: []faults.WorkerCrash{{Worker: 0}}}},
	}
	for i, cfg := range bad {
		if _, err := Run(src, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// A clean fleet drains the queue: every cell exactly once, one durable
// bundle per worker, and the bundle union covers the campaign.
func TestSchedBasic(t *testing.T) {
	f := newFakeSource(600, 700, 800, 900, 1000, 1100)
	dir := t.TempDir()
	res, err := Run(f, Config{Workers: 3, Steal: true, Dir: dir})
	mustComplete(t, f, res, err)
	if res.Stats.LeasesGranted != 6 || res.Stats.WorkerCrashes != 0 || res.Stats.Duplicates != 0 {
		t.Fatalf("clean-run stats: %+v", res.Stats)
	}
	for id, n := range f.runs {
		if n != 1 {
			t.Errorf("cell %q ran %d times, want 1", id, n)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("no simulated makespan")
	}
	if len(res.BundlePaths) != 3 || !strings.HasSuffix(res.BundlePaths[0], "fake.worker1of3.json") {
		t.Fatalf("bundle paths: %v", res.BundlePaths)
	}
	covered := map[string]bool{}
	for _, p := range res.BundlePaths {
		m, err := expt.ReadCampaignManifestFile(p)
		if err != nil {
			t.Fatalf("worker bundle %s: %v", p, err)
		}
		if !m.Leased {
			t.Fatalf("worker bundle %s is not marked leased", p)
		}
		for _, rec := range m.Cells {
			covered[rec.ID] = true
		}
	}
	if len(covered) != len(f.ids) {
		t.Fatalf("bundles cover %d of %d cells", len(covered), len(f.ids))
	}
}

// A heartbeat blackout expires the lease; with stealing on, the cell
// is re-executed elsewhere while the silent worker keeps computing, and
// the late ack plus the re-execution are arbitrated by digest.
func TestSchedBlackoutStealDuplicate(t *testing.T) {
	f := newFakeSource(4000, 4000, 9000)
	plan := faults.WorkerPlan{
		Name:      "test-blackout",
		Blackouts: []faults.HeartbeatBlackout{{Worker: 1, Window: faults.Window{From: 0, Until: 1e9}}},
	}
	res, err := Run(f, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	mustComplete(t, f, res, err)
	s := res.Stats
	if s.LeasesExpired == 0 || s.CellsRequeued == 0 || s.HeartbeatsMissed == 0 {
		t.Fatalf("blackout left no trace: %+v", s)
	}
	if s.CellsStolen == 0 || s.Duplicates == 0 || s.AcksLate == 0 {
		t.Fatalf("steal/duplicate/late-ack path not exercised: %+v", s)
	}
	if f.runs["cell01"] != 2 {
		t.Fatalf("reclaimed cell ran %d times, want 2", f.runs["cell01"])
	}
}

// The same topology with a nondeterministic cell: the duplicate
// completion disagrees by digest and the run must fail loudly, naming
// the cell and both digests — never silent last-write-wins.
func TestSchedDigestMismatchHardError(t *testing.T) {
	f := newFakeSource(4000, 4000, 9000)
	f.vary["cell01"] = true
	plan := faults.WorkerPlan{
		Name:      "test-blackout",
		Blackouts: []faults.HeartbeatBlackout{{Worker: 1, Window: faults.Window{From: 0, Until: 1e9}}},
	}
	_, err := Run(f, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	if err == nil {
		t.Fatal("nondeterministic duplicate completion accepted")
	}
	for _, want := range []string{"conflicting digests", "cell01", "last-write-wins"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("arbitration error %q does not mention %q", err, want)
		}
	}
}

// Without work-stealing a reclaimed cell stays reserved for the worker
// that lost it: nothing is stolen and nothing re-executes.
func TestSchedNoStealReservation(t *testing.T) {
	f := newFakeSource(4000, 4000, 9000)
	plan := faults.WorkerPlan{
		Name:      "test-blackout",
		Blackouts: []faults.HeartbeatBlackout{{Worker: 1, Window: faults.Window{From: 0, Until: 1e9}}},
	}
	res, err := Run(f, Config{Workers: 2, Steal: false, Plan: plan, Dir: t.TempDir()})
	mustComplete(t, f, res, err)
	if res.Stats.CellsStolen != 0 {
		t.Fatalf("no-steal policy stole %d cells", res.Stats.CellsStolen)
	}
	for id, n := range f.runs {
		if n != 1 {
			t.Errorf("cell %q ran %d times under no-steal", id, n)
		}
	}
}

// A mid-cell crash loses the in-flight result: the lease expires, the
// cell is re-executed, and the worker rejoins from its durable bundle.
func TestSchedMidCellCrashRerun(t *testing.T) {
	f := newFakeSource(600, 700, 800, 900)
	plan := faults.WorkerPlan{
		Name:    "test-midcell",
		Crashes: []faults.WorkerCrash{{Worker: 1, AfterCells: 1, MidCell: true, RestartAfter: 100}},
	}
	res, err := Run(f, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	mustComplete(t, f, res, err)
	s := res.Stats
	if s.WorkerCrashes != 1 || s.WorkerRestarts != 1 {
		t.Fatalf("crash/restart counts: %+v", s)
	}
	if f.runs["cell01"] != 2 {
		t.Fatalf("mid-cell-crashed cell ran %d times, want 2", f.runs["cell01"])
	}
}

// A before-ack crash is the at-least-once window: the completion is
// durable but unacknowledged. A quick restart recovers it from the
// bundle — the cell is never re-executed.
func TestSchedBeforeAckRecovery(t *testing.T) {
	f := newFakeSource(600, 700, 800)
	plan := faults.WorkerPlan{
		Name:    "test-before-ack",
		Crashes: []faults.WorkerCrash{{Worker: 0, AfterCells: 1, BeforeAck: true, RestartAfter: 50}},
	}
	res, err := Run(f, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	mustComplete(t, f, res, err)
	if res.Stats.Recovered == 0 {
		t.Fatalf("lost ack was not recovered from the bundle: %+v", res.Stats)
	}
	if f.runs["cell00"] != 1 {
		t.Fatalf("durably checkpointed cell re-executed %d times", f.runs["cell00"])
	}
}

// A kill between a worker checkpoint's temp write and its rename (the
// torn-checkpoint window) must leave the previous bundle authoritative:
// the scheduler treats the failed write as a worker crash, reloads the
// last good bundle, and re-runs only the lost cell.
func TestSchedTornCheckpointReclaim(t *testing.T) {
	f := newFakeSource(600, 700)
	dir := t.TempDir()
	bundle := WorkerBundlePath(dir, "fake", 0, 1)
	calls := 0
	atomicfile.TestHookBeforeRename = func(dest string) error {
		if dest != bundle {
			return nil
		}
		calls++
		if calls == 2 { // call 1 is the join checkpoint; call 2 the first cell
			return errors.New("injected kill before rename")
		}
		return nil
	}
	defer func() { atomicfile.TestHookBeforeRename = nil }()

	res, err := Run(f, Config{Workers: 1, Dir: dir})
	mustComplete(t, f, res, err)
	s := res.Stats
	if s.CheckpointsTorn != 1 || s.WorkerCrashes != 1 || s.WorkerRestarts != 1 {
		t.Fatalf("torn-checkpoint stats: %+v", s)
	}
	if f.runs["cell00"] != 2 {
		t.Fatalf("torn cell ran %d times, want 2 (lost checkpoint must re-execute)", f.runs["cell00"])
	}
	orphans, err := filepath.Glob(bundle + ".tmp*")
	if err != nil || len(orphans) == 0 {
		t.Fatalf("torn write left no orphan temp file (err %v)", err)
	}
	m, err := expt.ReadCampaignManifestFile(bundle)
	if err != nil {
		t.Fatalf("final bundle unreadable after torn checkpoint: %v", err)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("final bundle has %d cells, want 2", len(m.Cells))
	}
}

// Repeated torn checkpoints must fail loudly instead of crash-looping.
func TestSchedTornCheckpointLoopFails(t *testing.T) {
	f := newFakeSource(600)
	dir := t.TempDir()
	bundle := WorkerBundlePath(dir, "fake", 0, 1)
	calls := 0
	atomicfile.TestHookBeforeRename = func(dest string) error {
		if dest != bundle {
			return nil
		}
		calls++
		if calls >= 2 {
			return errors.New("injected persistent write failure")
		}
		return nil
	}
	defer func() { atomicfile.TestHookBeforeRename = nil }()
	_, err := Run(f, Config{Workers: 1, Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "consecutive checkpoints") {
		t.Fatalf("persistent checkpoint failure: %v", err)
	}
}

// Hedging routes around a straggler: once the lease outlives the
// longest completed cell by the hedge factor, an idle worker duplicates
// the cell, and the makespan collapses to the fast copy. The duplicate
// lease is not a steal: no lease expired, so no cell was requeued and
// none can have been stolen, in Stats and in the
// fdw_sched_cells_stolen_total counter alike.
func TestSchedHedgeStraggler(t *testing.T) {
	mk := func() *fakeSource { return newFakeSource(100, 100, 100) }
	plan := faults.WorkerPlan{
		Name: "test-straggler",
		Slow: []faults.SlowWorker{{Worker: 1, Factor: 50}},
	}
	slow := mk()
	noHedge, err := Run(slow, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	mustComplete(t, slow, noHedge, err)

	hedged := mk()
	reg := obs.NewRegistry(nil)
	withHedge, err := Run(hedged, Config{Workers: 2, Steal: true, Hedge: true, Plan: plan, Dir: t.TempDir(), Obs: reg})
	mustComplete(t, hedged, withHedge, err)
	if withHedge.Stats.CellsHedged == 0 {
		t.Fatalf("straggler was never hedged: %+v", withHedge.Stats)
	}
	if s := withHedge.Stats; s.LeasesExpired != 0 || s.CellsStolen != 0 {
		t.Fatalf("hedge without an expired lease counted as %d steals: %+v", s.CellsStolen, s)
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "fdw_sched_cells_stolen_total" && c.Value != 0 {
			t.Fatalf("fdw_sched_cells_stolen_total = %d after a hedge alone", c.Value)
		}
	}
	if withHedge.Makespan >= noHedge.Makespan {
		t.Fatalf("hedging did not improve makespan: %v vs %v", withHedge.Makespan, noHedge.Makespan)
	}

	// The same on the fig2 campaign with three workers under the
	// standard straggler plan, whose slow worker otherwise holds its
	// cell long after the others finish.
	_, _, src, _, _, _ := schedCampaignRef(t)
	straggler, err := faults.WorkerPlanByName("straggler")
	if err != nil {
		t.Fatal(err)
	}
	var makespan [2]sim.Time
	for i, hedge := range []bool{false, true} {
		res, err := Run(src, Config{Workers: 3, Steal: true, Hedge: hedge, Plan: straggler, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("fig2 hedge=%t: %v", hedge, err)
		}
		if hedge && res.Stats.CellsHedged == 0 {
			t.Fatalf("fig2 straggler was never hedged: %+v", res.Stats)
		}
		makespan[i] = res.Makespan
	}
	if makespan[1] >= makespan[0] {
		t.Fatalf("hedging did not cut the fig2 makespan: %.2f h with, %.2f h without", makespan[1]/3600, makespan[0]/3600)
	}
}

// memoize wraps a Source with a per-cell result cache. Sources are
// deterministic per cell id, so memoization is observationally
// invisible; it lets tests that sweep many plans over one campaign pay
// each cell's simulation once.
func memoize(src Source) Source {
	return &memoSource{src: src, cache: map[string]expt.CellRecord{}}
}

type memoSource struct {
	src   Source
	mu    sync.Mutex
	cache map[string]expt.CellRecord
}

func (m *memoSource) Name() string        { return m.src.Name() }
func (m *memoSource) Fingerprint() string { return m.src.Fingerprint() }
func (m *memoSource) CellIDs() []string   { return m.src.CellIDs() }

func (m *memoSource) RunCell(id string) (expt.CellRecord, error) {
	m.mu.Lock()
	rec, ok := m.cache[id]
	m.mu.Unlock()
	if ok {
		return rec, nil
	}
	rec, err := m.src.RunCell(id)
	if err != nil {
		return expt.CellRecord{}, err
	}
	m.mu.Lock()
	m.cache[id] = rec
	m.mu.Unlock()
	return rec, nil
}

// memoize runs each unique cell once no matter how often tests ask.
func TestMemoize(t *testing.T) {
	f := newFakeSource(100, 200)
	m := memoize(f)
	for i := 0; i < 3; i++ {
		for _, id := range m.CellIDs() {
			if _, err := m.RunCell(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id, n := range f.runs {
		if n != 1 {
			t.Errorf("memoized cell %q ran %d times", id, n)
		}
	}
	if _, err := m.RunCell("nope"); err == nil {
		t.Error("memoized unknown cell did not error")
	}
}

// csvBytes renders every CSV a finalized campaign declares, each after
// its name.
func csvBytes(t *testing.T, res *expt.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, c := range res.CSVs {
		fmt.Fprintf(&b, "== %s\n", c.Name)
		if err := c.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// schedCampaignRef opens fig2 at shard-test scale, memoizes it, and
// produces the unsharded reference bytes through the shared finalize
// path.
func schedCampaignRef(t *testing.T) (expt.Options, *expt.CampaignHandle, Source, map[string]expt.CellRecord, []byte, []byte) {
	t.Helper()
	opt := expt.DefaultOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	h, err := expt.OpenCampaign("fig2", opt)
	if err != nil {
		t.Fatal(err)
	}
	src := memoize(h)
	ref := map[string]expt.CellRecord{}
	for _, id := range src.CellIDs() {
		rec, err := src.RunCell(id)
		if err != nil {
			t.Fatal(err)
		}
		ref[id] = rec
	}
	var rep bytes.Buffer
	res, err := h.Finalize(&rep, ref)
	if err != nil {
		t.Fatal(err)
	}
	cs := csvBytes(t, res)
	if rep.Len() == 0 || len(cs) == 0 {
		t.Fatal("empty reference output")
	}
	return opt, h, src, ref, rep.Bytes(), cs
}

// The headline guarantee: for every standard crash plan × worker count
// × policy (steal off, steal on, steal+hedge), the scheduler
// terminates, completes every cell exactly once in the arbitrated
// ledger, and the merged report and CSV are byte-identical to the
// unsharded run. Hedges must fire somewhere in the sweep, or the
// hedge arms prove nothing.
func TestSchedPropertyByteIdentical(t *testing.T) {
	opt, h, src, ref, wantRep, wantCSV := schedCampaignRef(t)
	var hedges uint64
	for _, plan := range faults.StandardWorkerPlans() {
		for _, workers := range []int{1, 2, 4, 7} {
			for _, pol := range []struct{ steal, hedge bool }{{false, false}, {true, false}, {true, true}} {
				steal := pol.steal
				name := fmt.Sprintf("%s/w%d/steal=%t", plan.Name, workers, steal)
				if pol.hedge {
					name += "+hedge"
				}
				res, err := Run(src, Config{Workers: workers, Steal: steal, Hedge: pol.hedge, Plan: plan, Dir: t.TempDir()})
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if len(res.Records) != len(h.CellIDs()) {
					t.Errorf("%s: %d records for %d cells", name, len(res.Records), len(h.CellIDs()))
					continue
				}
				for id, rec := range res.Records {
					if rec.Digest != ref[id].Digest {
						t.Errorf("%s: cell %q digest drifted", name, id)
					}
				}
				var rep bytes.Buffer
				fin, err := h.Finalize(&rep, res.Records)
				if err != nil {
					t.Errorf("%s: finalize: %v", name, err)
					continue
				}
				if !bytes.Equal(rep.Bytes(), wantRep) {
					t.Errorf("%s: merged report differs from unsharded run", name)
				}
				if !bytes.Equal(csvBytes(t, fin), wantCSV) {
					t.Errorf("%s: merged CSV differs from unsharded run", name)
				}
				// The durable bundles alone reproduce the same bytes
				// through the ordinary merge path.
				if steal && workers == 4 {
					mopt := opt
					var mrep bytes.Buffer
					mopt.Out = &mrep
					mres, err := expt.MergeManifestFiles(mopt, res.BundlePaths)
					if err != nil {
						t.Errorf("%s: bundle merge: %v", name, err)
						continue
					}
					if !bytes.Equal(mrep.Bytes(), wantRep) || !bytes.Equal(csvBytes(t, mres), wantCSV) {
						t.Errorf("%s: bundle merge not byte-identical", name)
					}
				}
				hedges += res.Stats.CellsHedged
			}
		}
	}
	if hedges == 0 {
		t.Error("no steal+hedge arm hedged a cell")
	}
}

// The scheduler runs any registered experiment, not only the figure
// sweeps: fig4 (four CSVs), headline and policy3 (none) under the
// kitchen-sink crash plan leave worker bundles that merge byte for byte
// into the unsharded report and CSVs.
func TestSchedMergesAnyExperiment(t *testing.T) {
	plan, err := faults.WorkerPlanByName("everything")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4", "headline", "policy3"} {
		opt := expt.DefaultOptions()
		opt.Scale = 0.002
		opt.Seeds = []uint64{11}
		var want bytes.Buffer
		opt.Out = &want
		ref, err := expt.Run(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		h, err := expt.OpenCampaign(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(h, Config{Workers: 3, Steal: true, Plan: plan, Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got bytes.Buffer
		opt.Out = &got
		merged, err := expt.MergeManifestFiles(opt, res.BundlePaths)
		if err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		if want.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: merged report differs from unsharded run:\n--- want\n%s\n--- got\n%s", name, want.Bytes(), got.Bytes())
		}
		if !bytes.Equal(csvBytes(t, merged), csvBytes(t, ref)) {
			t.Errorf("%s: merged CSVs differ from unsharded run", name)
		}
	}
}

// Re-executed cells of the real campaign are bit-identical: a steal
// re-run without memoization produces the same digests, so duplicate
// arbitration passes against genuinely recomputed results.
func TestSchedRealRerunDeterminism(t *testing.T) {
	_, h, _, _, wantRep, _ := schedCampaignRef(t)
	plan := faults.WorkerPlan{
		Name:      "test-blackout",
		Blackouts: []faults.HeartbeatBlackout{{Worker: 1, Window: faults.Window{From: 0, Until: 1e12}}},
	}
	res, err := Run(h, Config{Workers: 2, Steal: true, Plan: plan, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("real re-run under blackout: %v", err)
	}
	var rep bytes.Buffer
	if _, err := h.Finalize(&rep, res.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Bytes(), wantRep) {
		t.Fatal("report after real re-execution differs from unsharded run")
	}
}

// Killing the coordinator mid-run (the MaxCells budget) and restarting
// from the worker bundles alone finishes the campaign and produces the
// identical final report.
func TestSchedCoordinatorKillResume(t *testing.T) {
	opt, h, src, _, wantRep, wantCSV := schedCampaignRef(t)
	plan, err := faults.WorkerPlanByName("crash-early")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{Workers: 3, Steal: true, Plan: plan, Dir: dir, MaxCells: 3}
	partial, err := Run(src, cfg)
	if !errors.Is(err, expt.ErrIncomplete) {
		t.Fatalf("budgeted run returned %v, want ErrIncomplete", err)
	}
	if partial == nil || len(partial.Records) == 0 || len(partial.Records) >= len(h.CellIDs()) {
		t.Fatalf("budget halt ledger has %d records", len(partial.Records))
	}

	cfg.MaxCells = 0
	cfg.Resume = true
	res, err := Run(src, cfg)
	if err != nil {
		t.Fatalf("resume from bundles: %v", err)
	}
	var rep bytes.Buffer
	fin, err := h.Finalize(&rep, res.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Bytes(), wantRep) || !bytes.Equal(csvBytes(t, fin), wantCSV) {
		t.Fatal("coordinator kill-resume not byte-identical to unsharded run")
	}
	// And the final bundles merge to the same bytes on their own.
	mopt := opt
	var mrep bytes.Buffer
	mopt.Out = &mrep
	if _, err := expt.MergeManifestFiles(mopt, res.BundlePaths); err != nil {
		t.Fatalf("merge of resumed bundles: %v", err)
	}
	if !bytes.Equal(mrep.Bytes(), wantRep) {
		t.Fatal("merged resumed bundles differ from unsharded run")
	}
}

// Resume refuses bundles from different options or a different fleet
// shape instead of silently mixing incompatible results.
func TestSchedResumeRejectsMismatch(t *testing.T) {
	f := newFakeSource(100, 200)
	dir := t.TempDir()
	if _, err := Run(f, Config{Workers: 2, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// Different fleet size: worker bundle 1of2 is not 1of3.
	if _, err := Run(f, Config{Workers: 3, Dir: dir, Resume: true}); err == nil {
		// Worker 0's bundle names 1of3 and does not exist; 1of2 is simply
		// ignored, so this resume legitimately starts fresh.
		_ = err
	}
	// Same fleet, different fingerprint.
	g := newFakeSource(100, 200)
	gAlias := *g
	src := &fingerprintSource{fakeSource: &gAlias, fp: "otherfp"}
	if _, err := Run(src, Config{Workers: 2, Dir: dir, Resume: true}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume with different fingerprint: %v", err)
	}
}

type fingerprintSource struct {
	*fakeSource
	fp string
}

func (s *fingerprintSource) Fingerprint() string { return s.fp }

// Worker bundles are byte-stable: the SHA-256 below was recorded
// before the scheduler's checkpoint and resume loader were shared with
// the shard runner.
func TestSchedWorkerBundleBytesPinned(t *testing.T) {
	_, h, src, _, _, _ := schedCampaignRef(t)
	plan, err := faults.WorkerPlanByName("everything")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Run(src, Config{Workers: 3, Steal: true, Plan: plan, Dir: dir}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(WorkerBundlePath(dir, h.Name(), 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	const want = "2e273f6d46ab04606bf8705821b0a888d3b51f2c7ed2875edc4d3d8e50bfd171"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("fig2 worker1of3 bundle SHA-256 %s, want %s", got, want)
	}
}
