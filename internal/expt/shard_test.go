package expt

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdw/internal/core/atomicfile"
	"fdw/internal/obs"
)

// shardTestOptions is the sweep configuration every shard test uses:
// tiny scale, one seed, so a full campaign is a handful of cells.
func shardTestOptions() Options {
	opt := DefaultOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	return opt
}

// csvBytes renders every CSV a result declares, each after its name,
// and fails on a declared CSV with no data row.
func csvBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var all bytes.Buffer
	for _, c := range res.CSVs {
		var b bytes.Buffer
		if err := c.Write(&b); err != nil {
			t.Fatal(err)
		}
		if bytes.Count(b.Bytes(), []byte("\n")) < 2 {
			t.Fatalf("%s: %s has no data row", res.Campaign, c.Name)
		}
		fmt.Fprintf(&all, "== %s\n%s", c.Name, b.Bytes())
	}
	return all.Bytes()
}

// runUnsharded produces the reference bytes: the experiment's printed
// report and CSVs from a plain in-process run.
func runUnsharded(t *testing.T, name string, opt Options) (report, csv []byte) {
	t.Helper()
	var rep bytes.Buffer
	opt.Out = &rep
	res, err := NewSession(opt).Run(name)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Bytes(), csvBytes(t, res)
}

// runSharded partitions the campaign N ways, runs every shard to
// completion, merges, and returns the merged report and CSV bytes.
func runSharded(t *testing.T, name string, opt Options, total int) (report, csv []byte) {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i := 1; i <= total; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%s.shard%dof%d.json", name, i, total))
		if _, err := RunShard(opt, ShardRun{Campaign: name, Index: i, Total: total, Path: p}); err != nil {
			t.Fatalf("shard %d/%d: %v", i, total, err)
		}
		paths = append(paths, p)
	}
	var rep bytes.Buffer
	mopt := opt
	mopt.Out = &rep
	res, err := MergeManifestFiles(mopt, paths)
	if err != nil {
		t.Fatalf("merge %d-way: %v", total, err)
	}
	return rep.Bytes(), csvBytes(t, res)
}

// Sharding is invisible in the output: for every registered experiment
// and any partition width, the merged report and CSVs are
// byte-identical to an unsharded run — the sharding invariant. Width 7
// leaves some shards of the small experiments owning zero cells.
func TestShardMergeByteIdentical(t *testing.T) {
	for _, name := range Campaigns() {
		opt := shardTestOptions()
		wantRep, wantCSV := runUnsharded(t, name, opt)
		if len(wantRep) == 0 {
			t.Fatalf("%s: empty reference report", name)
		}
		for _, total := range []int{1, 2, 4, 7} {
			gotRep, gotCSV := runSharded(t, name, opt, total)
			if !bytes.Equal(wantRep, gotRep) {
				t.Errorf("%s: %d-way merged report differs from unsharded run:\n--- want\n%s\n--- got\n%s",
					name, total, wantRep, gotRep)
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Errorf("%s: %d-way merged CSV differs from unsharded run", name, total)
			}
		}
	}
}

// Every cell lands on exactly one shard, and the assignment is a pure
// function of identity strings.
func TestShardAssignmentPartitions(t *testing.T) {
	opt := shardTestOptions()
	for _, name := range Campaigns() {
		c, err := campaignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := c.cells(opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, total := range []int{1, 2, 4, 7} {
			var union []string
			for i := 1; i <= total; i++ {
				owned := ShardCells(name, ids, i, total)
				for _, id := range owned {
					if shardOf(name, id, total) != i {
						t.Fatalf("%s: cell %q listed for shard %d but hashes elsewhere", name, id, i)
					}
				}
				union = append(union, owned...)
			}
			if len(union) != len(ids) {
				t.Fatalf("%s /%d: union has %d cells, want %d", name, total, len(union), len(ids))
			}
			seen := map[string]bool{}
			for _, id := range union {
				if seen[id] {
					t.Fatalf("%s /%d: cell %q owned twice", name, total, id)
				}
				seen[id] = true
			}
		}
	}
}

// Killing a sharded campaign after k completed cells and resuming
// converges to the same manifest and merged bytes as an uninterrupted
// run, for every k — the checkpoint/resume property.
func TestShardKillResumeConverges(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	wantRep, wantCSV := runUnsharded(t, name, opt)

	c, err := campaignByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.cells(opt)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2
	owned := ShardCells(name, ids, 1, total)
	if len(owned) < 2 {
		t.Fatalf("shard 1/%d owns %d cells; test needs ≥2", total, len(owned))
	}

	dir := t.TempDir()
	// Reference manifests from uninterrupted shard runs.
	refPaths := make([]string, total)
	for i := 1; i <= total; i++ {
		refPaths[i-1] = filepath.Join(dir, fmt.Sprintf("ref%d.json", i))
		if _, err := RunShard(opt, ShardRun{Campaign: name, Index: i, Total: total, Path: refPaths[i-1]}); err != nil {
			t.Fatal(err)
		}
	}
	refBytes, err := os.ReadFile(refPaths[0])
	if err != nil {
		t.Fatal(err)
	}

	for k := 1; k < len(owned); k++ {
		p := filepath.Join(dir, fmt.Sprintf("kill%d.json", k))
		_, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: total, Path: p, MaxCells: k})
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("k=%d: budgeted run returned %v, want ErrIncomplete", k, err)
		}
		mid, err := ReadCampaignManifestFile(p)
		if err != nil {
			t.Fatalf("k=%d: checkpoint unreadable: %v", k, err)
		}
		if got := mid.Ledger.DoneCount(); got != k {
			t.Fatalf("k=%d: checkpoint marks %d cells done", k, got)
		}
		if mid.Complete() {
			t.Fatalf("k=%d: truncated run claims completeness", k)
		}
		// Merging an incomplete shard must refuse with ErrIncomplete.
		if _, err := MergeManifestFiles(opt, []string{p, refPaths[1]}); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("k=%d: merge of incomplete shard returned %v, want ErrIncomplete", k, err)
		}

		if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: total, Path: p, Resume: true}); err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refBytes) {
			t.Fatalf("k=%d: resumed manifest differs from uninterrupted manifest", k)
		}
		var rep bytes.Buffer
		mopt := opt
		mopt.Out = &rep
		res, err := MergeManifestFiles(mopt, []string{p, refPaths[1]})
		if err != nil {
			t.Fatalf("k=%d: merge after resume: %v", k, err)
		}
		if !bytes.Equal(rep.Bytes(), wantRep) || !bytes.Equal(csvBytes(t, res), wantCSV) {
			t.Fatalf("k=%d: kill-then-resume merge not byte-identical to unsharded run", k)
		}
	}
}

// Corrupted, truncated, or mismatched manifests are rejected rather
// than silently merged or resumed.
// A negative MaxCells is rejected before any cell runs, as
// sched.Config rejects it; it does not mean "no budget".
func TestRunShardRejectsNegativeBudget(t *testing.T) {
	p := filepath.Join(t.TempDir(), "m.json")
	m, err := RunShard(shardTestOptions(), ShardRun{Campaign: "fig2", Index: 1, Total: 2, Path: p, MaxCells: -1})
	if err == nil || m != nil {
		t.Fatalf("MaxCells -1: err %v, manifest returned %v; want a rejection", err, m != nil)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("rejected run wrote %s (stat err %v)", p, err)
	}
}

func TestShardManifestRejection(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	write := func(b []byte) string {
		t.Helper()
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return bad
	}

	// Truncated file (a kill mid-write, had the write not been atomic).
	if _, err := ReadCampaignManifestFile(write(good[:len(good)/2])); err == nil {
		t.Error("truncated manifest accepted")
	}
	// Flipped result byte breaks the cell digest.
	corrupt := bytes.Replace(good, []byte(`"runtime_h":`), []byte(`"runtime_h":9`), 1)
	if bytes.Equal(corrupt, good) {
		t.Fatal("corruption did not apply")
	}
	if _, err := ReadCampaignManifestFile(write(corrupt)); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("corrupted result accepted or wrong error: %v", err)
	}
	// Foreign cell: a ledger node that does not hash to this shard.
	foreign := bytes.Replace(good, []byte(`"shard":{"index":1,"total":2}`), []byte(`"shard":{"index":2,"total":2}`), 1)
	if _, err := ReadCampaignManifestFile(write(foreign)); err == nil {
		t.Error("manifest with foreign cells accepted")
	}

	// Resume under different options must refuse (fingerprint pin).
	other := opt
	other.Seeds = []uint64{12}
	if _, err := RunShard(other, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p, Resume: true}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("resume with different options: %v", err)
	}
	// Merge under different options likewise.
	if _, err := MergeManifestFiles(other, []string{p}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("merge with different options: %v", err)
	}
	// Merge with a shard missing.
	if _, err := MergeManifestFiles(opt, []string{p}); err == nil || !strings.Contains(err.Error(), "not supplied") {
		t.Errorf("merge with missing shard: %v", err)
	}
	// The same shard supplied twice is benign when the copies agree —
	// the merge proceeds to complain about the genuinely missing shard,
	// not the duplicate.
	if _, err := MergeManifestFiles(opt, []string{p, p}); err == nil || !strings.Contains(err.Error(), "not supplied") {
		t.Errorf("merge with identical duplicate shard: %v", err)
	}
}

// A shard slot supplied twice with disagreeing results must fail
// naming the cell and both digests — never resolve last-write-wins.
func TestMergeDuplicateShardConflict(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadCampaignManifestFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) == 0 {
		t.Fatal("shard completed no cells")
	}
	// Forge an internally consistent sibling claiming the same slot with
	// a different result for one cell.
	victim := &m.Cells[0]
	cell, orig := victim.ID, victim.Digest
	victim.Result = json.RawMessage(`{"forged":true}`)
	victim.Digest = cellDigest(victim.Result)
	forgedPath := filepath.Join(dir, "forged.json")
	if err := m.WriteFile(forgedPath); err != nil {
		t.Fatal(err)
	}
	_, err = MergeManifestFiles(opt, []string{p, forgedPath})
	if err == nil {
		t.Fatal("conflicting duplicate shard merged silently")
	}
	for _, want := range []string{"conflicting", cell, orig, victim.Digest} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not name %q", err, want)
		}
	}
}

// Leased worker bundles that disagree on a cell fail the merge naming
// both workers and digests; mixing leased and hash-partitioned bundles
// is refused outright.
func TestMergeLeasedArbitration(t *testing.T) {
	opt := shardTestOptions()
	fp, err := opt.Fingerprint("fig2")
	if err != nil {
		t.Fatal(err)
	}
	leased := func(idx int, raw string) *CampaignManifest {
		return &CampaignManifest{
			Format:      CampaignManifestFormat,
			Campaign:    "fig2",
			Shard:       ShardSpec{Index: idx, Total: 2},
			Leased:      true,
			Fingerprint: fp,
			Ledger: Ledger{
				Format: LedgerFormat,
				DAG:    "t",
				Nodes:  []LedgerNode{{Name: "cellX", Done: true}},
			},
			Cells: []CellRecord{{ID: "cellX", Result: json.RawMessage(raw), Digest: cellDigest([]byte(raw))}},
		}
	}
	m1, m2 := leased(1, `{"a":1}`), leased(2, `{"a":2}`)
	_, err = MergeManifests(opt, []*CampaignManifest{m1, m2})
	if err == nil {
		t.Fatal("conflicting leased bundles merged silently")
	}
	for _, want := range []string{"cellX", m1.Cells[0].Digest, m2.Cells[0].Digest, "last-write-wins"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("leased conflict error %q does not name %q", err, want)
		}
	}

	dir := t.TempDir()
	p := filepath.Join(dir, "hash.json")
	if _, err := RunShard(opt, ShardRun{Campaign: "fig2", Index: 1, Total: 2, Path: p}); err != nil {
		t.Fatal(err)
	}
	hash, err := ReadCampaignManifestFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeManifests(opt, []*CampaignManifest{m1, hash}); err == nil || !strings.Contains(err.Error(), "mix") {
		t.Errorf("leased+hash merge: %v", err)
	}
}

// A kill in the window between a checkpoint's temp-file write and its
// rename leaves the previous complete manifest plus an orphan temp
// file; -resume must recover from the last good checkpoint and never
// trust the orphan.
func TestShardTornCheckpointResume(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	opt.Workers = 1 // serialize cells so the kill point is deterministic
	dir := t.TempDir()

	ref := filepath.Join(dir, "ref.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: ref}); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	p := filepath.Join(dir, "m.json")
	calls := 0
	atomicfile.TestHookBeforeRename = func(dest string) error {
		if dest != p {
			return nil
		}
		calls++
		if calls == 2 {
			return errors.New("injected kill before rename")
		}
		return nil
	}
	defer func() { atomicfile.TestHookBeforeRename = nil }()
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p}); err == nil || !strings.Contains(err.Error(), "injected kill") {
		t.Fatalf("torn run: %v", err)
	}
	atomicfile.TestHookBeforeRename = nil

	// The destination is the previous complete checkpoint; the torn
	// write survives only as an orphan temp file.
	mid, err := ReadCampaignManifestFile(p)
	if err != nil {
		t.Fatalf("checkpoint after torn write unreadable: %v", err)
	}
	if got := mid.Ledger.DoneCount(); got != 1 {
		t.Fatalf("checkpoint after torn write marks %d cells done, want 1", got)
	}
	orphans, err := filepath.Glob(p + ".tmp*")
	if err != nil || len(orphans) == 0 {
		t.Fatalf("no orphan temp file left by torn write (glob err %v)", err)
	}

	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p, Resume: true}); err != nil {
		t.Fatalf("resume after torn checkpoint: %v", err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Fatal("manifest resumed after torn checkpoint differs from uninterrupted run")
	}
}

// Per-shard metrics snapshots roll up to the unsharded totals: the
// campaign-level counter sums are exact regardless of partitioning.
func TestShardMetricsRollup(t *testing.T) {
	const name = "chaos"
	opt := shardTestOptions()

	ref := obs.NewRegistry(nil)
	uopt := opt
	uopt.Obs = ref
	c, err := campaignByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCampaign(c, uopt, &campaignCtx{}); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for _, cs := range ref.Snapshot().Counters {
		want[mergeKeyForTest(cs.Name, cs.Labels)] += cs.Value
	}

	dir := t.TempDir()
	const total = 3
	var paths []string
	for i := 1; i <= total; i++ {
		sopt := opt
		sopt.Obs = obs.NewRegistry(nil)
		p := filepath.Join(dir, fmt.Sprintf("m%d.json", i))
		if _, err := RunShard(sopt, ShardRun{Campaign: name, Index: i, Total: total, Path: p}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	res, err := MergeManifestFiles(opt, paths)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("merged result has no metrics rollup")
	}
	got := map[string]uint64{}
	for _, cs := range res.Metrics.Counters {
		got[mergeKeyForTest(cs.Name, cs.Labels)] += cs.Value
	}
	if len(want) == 0 {
		t.Fatal("reference run recorded no counters")
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("counter %q: rollup %d, unsharded %d", k, got[k], w)
		}
	}
}

// A bundle's cell snapshots are input from disk: a bad one fails the
// merge naming the cell, before any report is printed.
func TestMergeRejectsBadCellMetrics(t *testing.T) {
	opt := shardTestOptions()
	opt.Obs = obs.NewRegistry(nil)
	m, err := RunShard(opt, ShardRun{Campaign: "fig2", Index: 1, Total: 1, Path: filepath.Join(t.TempDir(), "m.json")})
	if err != nil {
		t.Fatal(err)
	}
	cell := m.Cells[len(m.Cells)-1]
	for _, h := range cell.Metrics.Histograms {
		if len(h.Buckets) > 0 {
			h.Buckets[0].LE = 3 // not one of DefaultBuckets
			break
		}
	}
	var out bytes.Buffer
	mopt := shardTestOptions()
	mopt.Out = &out
	_, err = MergeManifests(mopt, []*CampaignManifest{m})
	want := fmt.Sprintf("expt: merge: cell %q: obs: absorb: histogram ", cell.ID)
	if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "le=3") {
		t.Fatalf("merge error %v, want %s…le=3…", err, want)
	}
	if out.Len() > 0 {
		t.Fatalf("merge printed a report before failing:\n%s", out.Bytes())
	}
}

// mergeKeyForTest mirrors obs's canonical metric key without exporting
// it: name plus sorted label pairs.
func mergeKeyForTest(name string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	out := name
	for _, k := range keys {
		out += "|" + k + "=" + labels[k]
	}
	return out
}

// Shard bundles are byte-stable: the SHA-256 of each bundle below was
// recorded before the bundle builder and resume loader were shared
// with the scheduler, and any change to manifest layout, cell order,
// ledger names or result encoding moves it.
func TestShardBundleBytesPinned(t *testing.T) {
	opt := shardTestOptions()
	dir := t.TempDir()
	cases := []struct {
		name     string
		run      ShardRun
		want     string
		budgeted bool
	}{
		{"fig2 shard 1/2", ShardRun{Campaign: "fig2", Index: 1, Total: 2},
			"6e541c228b38ddae2c6ffc5a2154612e8e88926be769a73815453cb28cc4f28d", false},
		{"chaos shard 1/2", ShardRun{Campaign: "chaos", Index: 1, Total: 2},
			"43aa5f43dc79dadc3e760a850e6068490c114c3bb8f2980d972619831e0e43c2", false},
		{"fig2 shard 2/2 after one cell", ShardRun{Campaign: "fig2", Index: 2, Total: 2, MaxCells: 1},
			"c67a2fc2ced1d97347f39eaf51edbddf7acf78a16401f97b1c2dd13106fc0c72", true},
	}
	for i, c := range cases {
		c.run.Path = filepath.Join(dir, fmt.Sprintf("b%d.json", i))
		_, err := RunShard(opt, c.run)
		if c.budgeted != errors.Is(err, ErrIncomplete) || (!c.budgeted && err != nil) {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := os.ReadFile(c.run.Path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != c.want {
			t.Errorf("%s: bundle SHA-256 %s, want %s", c.name, got, c.want)
		}
	}
}

// unknownCellBundle writes a leased fig2 bundle that stores every
// canonical cell plus one cell, "not-a-cell", the campaign does not
// have. Every digest and the fingerprint are valid.
func unknownCellBundle(t *testing.T, opt Options) string {
	t.Helper()
	h, err := OpenCampaign("fig2", opt)
	if err != nil {
		t.Fatal(err)
	}
	m := &CampaignManifest{
		Format:      CampaignManifestFormat,
		Campaign:    "fig2",
		Shard:       ShardSpec{Index: 1, Total: 1},
		Leased:      true,
		Fingerprint: h.Fingerprint(),
		Ledger:      Ledger{Format: LedgerFormat, DAG: "t"},
	}
	for _, id := range h.CellIDs() {
		rec, err := h.RunCell(id)
		if err != nil {
			t.Fatal(err)
		}
		m.Cells = append(m.Cells, rec)
	}
	extra := m.Cells[0]
	extra.ID = "not-a-cell"
	m.Cells = append(m.Cells, extra)
	for _, rec := range m.Cells {
		m.Ledger.Nodes = append(m.Ledger.Nodes, LedgerNode{Name: rec.ID, Done: true})
	}
	p := filepath.Join(t.TempDir(), "fig2.worker1of1.json")
	if err := m.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// A bundle storing a cell its campaign does not have is refused by
// merge, naming the cell, even when every canonical cell is covered.
func TestMergeRejectsUnknownCell(t *testing.T) {
	opt := shardTestOptions()
	p := unknownCellBundle(t, opt)
	if _, err := MergeManifestFiles(opt, []string{p}); err == nil || !strings.Contains(err.Error(), "not-a-cell") {
		t.Fatalf("merge of a bundle with an unknown cell: %v", err)
	}
}

// LoadBundle is the one resume loader: a missing file is an empty
// bundle; another slot, bundle kind or fingerprint, or a cell outside
// the campaign, is refused.
func TestLoadBundle(t *testing.T) {
	opt := shardTestOptions()
	h, err := OpenCampaign("fig2", opt)
	if err != nil {
		t.Fatal(err)
	}
	slot := ShardSpec{Index: 1, Total: 1}
	m, err := LoadBundle(filepath.Join(t.TempDir(), "missing.json"), "fig2", h.fp, slot, true, h.pos)
	if err != nil || len(m.Cells) != 0 {
		t.Fatalf("missing bundle: %v, %d cells", err, len(m.Cells))
	}
	p := unknownCellBundle(t, opt)
	cases := []struct {
		name, fp string
		slot     ShardSpec
		leased   bool
		want     string
	}{
		{"unknown cell", h.fp, slot, true, "not-a-cell"},
		{"other slot", h.fp, ShardSpec{Index: 1, Total: 2}, true, "want fig2 worker 1/2"},
		{"other kind", h.fp, slot, false, "want fig2 shard 1/1"},
		{"other fingerprint", "0123", slot, true, "fingerprint"},
	}
	for _, c := range cases {
		if _, err := LoadBundle(p, "fig2", c.fp, c.slot, c.leased, h.pos); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
