package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fdw"
	"fdw/internal/expt"
	"fdw/internal/sched"
)

func quickOpt() fdw.ExperimentOptions {
	opt := fdw.DefaultExperimentOptions()
	opt.Seeds = []uint64{7}
	opt.Scale = 0.02
	opt.Out = io.Discard
	return opt
}

func TestDispatchEveryFigure(t *testing.T) {
	for _, cmd := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "headline", "ablate", "policy3", "elastic", "chaos"} {
		opt := quickOpt()
		if cmd == "headline" {
			opt.Scale = 0.1
		}
		if err := dispatch(cmd, opt, t.TempDir()); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

// TestDispatchWritesToOut: fig1 and the "all" separators go to
// opt.Out like every report, so "all" is exactly its parts' reports,
// each followed by a blank line.
func TestDispatchWritesToOut(t *testing.T) {
	run := func(cmd string) []byte {
		t.Helper()
		var out bytes.Buffer
		opt := quickOpt()
		opt.Out = &out
		if err := dispatch(cmd, opt, ""); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return out.Bytes()
	}
	if fig1 := run("fig1"); !bytes.HasPrefix(fig1, []byte("Fig. 1 — FakeQuakes data products\n")) {
		t.Fatalf("fig1 wrote %q to opt.Out", fig1)
	}
	var want []byte
	for _, c := range allExperiments {
		want = append(append(want, run(c)...), '\n')
	}
	if got := run("all"); !bytes.Equal(got, want) {
		t.Fatalf("all wrote %d bytes to opt.Out, want its %d parts' reports and separators", len(got), len(want))
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := dispatch("fig99", quickOpt(), ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestParseShardSpec(t *testing.T) {
	i, n, err := parseShardSpec("2/4")
	if err != nil || i != 2 || n != 4 {
		t.Fatalf("2/4 → %d %d %v", i, n, err)
	}
	for _, bad := range []string{"", "4", "0/4", "5/4", "2/0", "a/b", "1/2/3", "-1/4", "1/2x", "1/2 junk", " 1/2", "+1/2", "1/ 2"} {
		if _, _, err := parseShardSpec(bad); exitCode(err) != 2 {
			t.Errorf("%q: want usage error, got %v", bad, err)
		}
	}
}

// checkFlags picks the mode from the flags the user named and rejects
// a flag given with a mode it does not apply to, whatever its value:
// -steal=false outside -sched is as much a usage error as -hedge.
func TestCheckFlags(t *testing.T) {
	flags := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	cases := []struct {
		set   map[string]bool
		nargs int
		mode  string // "" runs experiments by name; ignored on error
		ok    bool
	}{
		{flags(), 1, "", true},
		{flags("scale", "seeds", "j", "csv", "metrics"), 1, "", true},
		{flags(), 0, "", false},
		{flags(), 2, "", false},
		{flags("steal"), 1, "", false},
		{flags("hedge"), 1, "", false},
		{flags("crash-plan"), 1, "", false},
		{flags("resume"), 1, "", false},
		{flags("cells"), 1, "", false},
		{flags("out"), 1, "", false},
		{flags("shard", "resume", "cells", "out", "metrics"), 1, "shard", true},
		{flags("shard"), 0, "", false},
		{flags("shard", "steal"), 1, "", false},
		{flags("shard", "csv"), 1, "", false},
		{flags("sched", "crash-plan", "steal", "hedge", "resume", "cells", "out", "csv", "metrics"), 1, "sched", true},
		{flags("sched"), 2, "", false},
		{flags("merge", "csv", "metrics"), 3, "merge", true},
		{flags("merge"), 0, "", false},
		{flags("merge", "hedge"), 2, "", false},
		{flags("merge", "out"), 2, "", false},
		{flags("status"), 1, "status", true},
		{flags("status", "metrics"), 1, "", false},
		{flags("status", "steal"), 1, "", false},
		{flags("shard", "sched"), 1, "", false},
		{flags("merge", "status"), 1, "", false},
	}
	for _, c := range cases {
		mode, err := checkFlags(c.set, c.nargs)
		switch {
		case c.ok && (err != nil || mode != c.mode):
			t.Errorf("%v with %d args: mode %q, err %v; want mode %q", c.set, c.nargs, mode, err, c.mode)
		case !c.ok && exitCode(err) != 2:
			t.Errorf("%v with %d args: err %v, want a usage error", c.set, c.nargs, err)
		}
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("boom"), 1},
		{usageErrorf("bad flags"), 2},
		{expt.ErrIncomplete, 3},
		{fmt.Errorf("shard 1/2: %w", expt.ErrIncomplete), 3},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// The CLI path end to end: N shard invocations plus a merge reproduce
// the unsharded command's stdout report and CSV byte-for-byte.
func TestShardMergeCLIRoundTrip(t *testing.T) {
	opt := quickOpt()
	var wantRep bytes.Buffer
	opt.Out = &wantRep
	wantCSVDir := t.TempDir()
	if err := dispatch("fig2", opt, wantCSVDir); err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join(wantCSVDir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}

	const total = 4
	bundleDir := t.TempDir()
	var paths []string
	for i := 1; i <= total; i++ {
		sopt := quickOpt()
		if err := runShardCmd(sopt, fmt.Sprintf("%d/%d", i, total), "fig2", bundleDir, 0, false); err != nil {
			t.Fatalf("shard %d/%d: %v", i, total, err)
		}
		paths = append(paths, shardBundlePath(bundleDir, "fig2", i, total))
	}
	mopt := quickOpt()
	var gotRep bytes.Buffer
	mopt.Out = &gotRep
	gotCSVDir := t.TempDir()
	if err := runMergeCmd(mopt, gotCSVDir, "", paths); err != nil {
		t.Fatal(err)
	}
	gotCSV, err := os.ReadFile(filepath.Join(gotCSVDir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRep.Bytes(), gotRep.Bytes()) {
		t.Errorf("merged report differs from unsharded run:\n--- want\n%s\n--- got\n%s", wantRep.Bytes(), gotRep.Bytes())
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Error("merged CSV differs from unsharded run")
	}
}

// A budgeted shard exits resumable (code 3) and a -resume invocation
// finishes it; merging then succeeds.
func TestShardBudgetResumeCLI(t *testing.T) {
	dir := t.TempDir()
	opt := quickOpt()
	err := runShardCmd(opt, "1/1", "fig2", dir, 1, false)
	if exitCode(err) != 3 {
		t.Fatalf("budgeted shard: err %v (exit %d), want exit 3", err, exitCode(err))
	}
	if err := runShardCmd(quickOpt(), "1/1", "fig2", dir, 0, true); err != nil {
		t.Fatalf("resume: %v", err)
	}
	mopt := quickOpt()
	if err := runMergeCmd(mopt, "", "", []string{shardBundlePath(dir, "fig2", 1, 1)}); err != nil {
		t.Fatalf("merge after resume: %v", err)
	}
}

func TestParseSchedSpec(t *testing.T) {
	for _, good := range []string{"workers=4", "4"} {
		n, err := parseSchedSpec(good)
		if err != nil || n != 4 {
			t.Errorf("%q → %d %v, want 4", good, n, err)
		}
	}
	for _, bad := range []string{"", "workers=", "workers=0", "workers=-2", "workers=x", "0", "w=4", "workers=4.5"} {
		if _, err := parseSchedSpec(bad); exitCode(err) != 2 {
			t.Errorf("%q: want usage error, got %v", bad, err)
		}
	}
}

// The scheduler CLI end to end: -sched under a crash plan reproduces
// the unsharded command's stdout report and CSV byte-for-byte, and the
// worker bundles it leaves behind merge to the same bytes.
func TestSchedCLIRoundTrip(t *testing.T) {
	opt := quickOpt()
	var wantRep bytes.Buffer
	opt.Out = &wantRep
	wantCSVDir := t.TempDir()
	if err := dispatch("fig2", opt, wantCSVDir); err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(filepath.Join(wantCSVDir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}

	sopt := quickOpt()
	var gotRep bytes.Buffer
	sopt.Out = &gotRep
	bundleDir := t.TempDir()
	gotCSVDir := t.TempDir()
	err = runSchedCmd(sopt, schedOpts{
		spec: "workers=3", plan: "crash-storm", steal: true,
		dir: bundleDir, csvDir: gotCSVDir,
	}, "fig2")
	if err != nil {
		t.Fatalf("sched run: %v", err)
	}
	gotCSV, err := os.ReadFile(filepath.Join(gotCSVDir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantRep.Bytes(), gotRep.Bytes()) {
		t.Errorf("sched report differs from unsharded run:\n--- want\n%s\n--- got\n%s", wantRep.Bytes(), gotRep.Bytes())
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Error("sched CSV differs from unsharded run")
	}

	var bundles []string
	for i := 0; i < 3; i++ {
		bundles = append(bundles, sched.WorkerBundlePath(bundleDir, "fig2", i, 3))
	}
	mopt := quickOpt()
	var mergedRep bytes.Buffer
	mopt.Out = &mergedRep
	if err := runMergeCmd(mopt, "", "", bundles); err != nil {
		t.Fatalf("merge of sched worker bundles: %v", err)
	}
	if !bytes.Equal(wantRep.Bytes(), mergedRep.Bytes()) {
		t.Error("merged sched bundles differ from unsharded run")
	}

	// -status over the finished bundle dir: readable, complete, exit 0.
	stopt := quickOpt()
	var statusOut bytes.Buffer
	stopt.Out = &statusOut
	if err := runStatusCmd(stopt, []string{bundleDir}); err != nil {
		t.Fatalf("status of complete sched dir: %v", err)
	}
	if !bytes.Contains(statusOut.Bytes(), []byte(`"leased": true`)) {
		t.Errorf("status output does not mark bundles leased:\n%s", statusOut.Bytes())
	}
}

// A budgeted -sched run exits resumable (code 3), -status agrees, and
// a -resume invocation finishes from the bundles alone.
func TestSchedBudgetResumeCLI(t *testing.T) {
	dir := t.TempDir()
	err := runSchedCmd(quickOpt(), schedOpts{spec: "workers=2", steal: true, dir: dir, cells: 1}, "fig2")
	if exitCode(err) != 3 {
		t.Fatalf("budgeted sched: err %v (exit %d), want exit 3", err, exitCode(err))
	}
	stopt := quickOpt()
	stopt.Out = io.Discard
	if err := runStatusCmd(stopt, []string{dir}); exitCode(err) != 3 {
		t.Fatalf("status of budget-halted dir: err %v (exit %d), want exit 3", err, exitCode(err))
	}
	if err := runSchedCmd(quickOpt(), schedOpts{spec: "workers=2", steal: true, dir: dir, resume: true}, "fig2"); err != nil {
		t.Fatalf("sched resume: %v", err)
	}
	stopt = quickOpt()
	stopt.Out = io.Discard
	if err := runStatusCmd(stopt, []string{dir}); err != nil {
		t.Fatalf("status after resume: %v", err)
	}
}

// A negative -cells budget is a usage error under -shard and -sched,
// raised before any cell runs or any bundle is written.
func TestNegativeCellsIsUsageError(t *testing.T) {
	dir := t.TempDir()
	if err := runShardCmd(quickOpt(), "1/2", "fig2", dir, -1, false); exitCode(err) != 2 {
		t.Errorf("-shard -cells -1: err %v (exit %d), want exit 2", err, exitCode(err))
	}
	if err := runSchedCmd(quickOpt(), schedOpts{spec: "workers=2", steal: true, dir: dir, cells: -1}, "fig2"); exitCode(err) != 2 {
		t.Errorf("-sched -cells -1: err %v (exit %d), want exit 2", err, exitCode(err))
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("bundle dir after rejected runs: %v %v, want empty", ents, err)
	}
}

// -status with an unreadable bundle reports it and exits 1; an unknown
// crash plan is a usage error.
func TestSchedCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	stopt := quickOpt()
	stopt.Out = io.Discard
	if err := runStatusCmd(stopt, []string{dir}); exitCode(err) != 1 {
		t.Fatalf("status over junk: err %v (exit %d), want exit 1", err, exitCode(err))
	}
	err := runSchedCmd(quickOpt(), schedOpts{spec: "workers=2", plan: "no-such-plan", dir: t.TempDir()}, "fig2")
	if exitCode(err) != 2 {
		t.Fatalf("unknown crash plan: err %v (exit %d), want usage error", err, exitCode(err))
	}
}

// -merge with a metrics rollup writes a readable snapshot.
func TestMergeWritesMetricsRollup(t *testing.T) {
	dir := t.TempDir()
	opt := quickOpt()
	opt.Obs = fdw.NewMetrics(nil)
	if err := runShardCmd(opt, "1/1", "fig2", dir, 0, false); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "metrics.json")
	mopt := quickOpt()
	if err := runMergeCmd(mopt, "", out, []string{shardBundlePath(dir, "fig2", 1, 1)}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := fdw.ReadMetricsSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) == 0 {
		t.Error("metrics rollup has no counters")
	}
}

// TestCSVEmissionAtomic pins the -csv/-metrics durability contract:
// an artifact is replaced by rename (a reader of the previous file
// keeps seeing its complete bytes), and a failed emission leaves the
// committed artifact untouched instead of truncating it in place.
func TestCSVEmissionAtomic(t *testing.T) {
	dir := t.TempDir()
	emit := func(s string) error {
		return writeCSVs(dir, expt.CSV{Name: "fig.csv", Write: func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}})
	}
	if err := emit("first,complete\n"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fig.csv")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := emit("second,complete\n"); err != nil {
		t.Fatal(err)
	}
	old, err := io.ReadAll(f)
	if err != nil || string(old) != "first,complete\n" {
		t.Fatalf("previous-file reader saw %q (%v): replacement truncated in place", old, err)
	}

	boom := errors.New("emitter failed mid-write")
	if err := writeCSVs(dir, expt.CSV{Name: "fig.csv", Write: func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return boom
	}}); !errors.Is(err, boom) {
		t.Fatalf("failed emission returned %v, want the emitter's error", err)
	}
	cur, err := os.ReadFile(path)
	if err != nil || string(cur) != "second,complete\n" {
		t.Fatalf("after failed emission the artifact holds %q (%v), want the committed version", cur, err)
	}
}
