package expt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -status over a partially finished partition reports the incomplete
// bundle, lists its remaining cells, rolls the group up as resumable,
// and flips to complete once the shard is resumed.
func TestStatusPartition(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.json")
	p2 := filepath.Join(dir, "b.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 2, Path: p1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 2, Total: 2, Path: p2, MaxCells: 1}); err == nil {
		t.Fatal("budgeted shard finished unexpectedly")
	}

	paths, err := StatusPaths([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0] != p1 || paths[1] != p2 {
		t.Fatalf("StatusPaths(%s) = %v", dir, paths)
	}
	rep, err := Status(opt, paths)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Fatalf("unexpected bundle errors: %+v", rep.Bundles)
	}
	if !rep.Bundles[0].Complete || rep.Bundles[1].Complete {
		t.Fatalf("completion flags = %t,%t, want true,false", rep.Bundles[0].Complete, rep.Bundles[1].Complete)
	}
	if rep.Bundles[1].CellsDone != 1 || len(rep.Bundles[1].IncompleteCells) == 0 {
		t.Fatalf("incomplete bundle status: %+v", rep.Bundles[1])
	}
	if rep.Bundles[0].SimMax <= 0 {
		t.Fatal("bundle carries no sim-clock provenance")
	}
	if len(rep.Campaigns) != 1 {
		t.Fatalf("%d campaign groups, want 1", len(rep.Campaigns))
	}
	cg := rep.Campaigns[0]
	if !cg.OptionsMatch || cg.Complete || cg.Campaign != name || cg.Total != 2 || cg.Bundles != 2 {
		t.Fatalf("campaign rollup: %+v", cg)
	}
	if cg.CellsDone >= cg.CellsTotal || len(cg.IncompleteCells) != cg.CellsTotal-cg.CellsDone {
		t.Fatalf("campaign coverage: %+v", cg)
	}
	if !rep.Resumable() {
		t.Fatal("partial partition not reported resumable")
	}

	// The report is valid JSON that round-trips.
	var buf bytes.Buffer
	if err := WriteStatus(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back StatusReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("status output is not valid JSON: %v", err)
	}
	if len(back.Bundles) != 2 || len(back.Campaigns) != 1 {
		t.Fatalf("round-tripped report lost entries: %+v", back)
	}

	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 2, Total: 2, Path: p2, Resume: true}); err != nil {
		t.Fatal(err)
	}
	rep, err = Status(opt, paths)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumable() || !rep.Campaigns[0].Complete {
		t.Fatalf("resumed partition still resumable: %+v", rep.Campaigns[0])
	}
}

// Status under different options keeps the inventory but cannot vouch
// for coverage: OptionsMatch is false and the group never reads as
// complete; unreadable files become error entries instead of failing
// the whole report.
func TestStatusMismatchAndErrors(t *testing.T) {
	const name = "fig2"
	opt := shardTestOptions()
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json")
	if _, err := RunShard(opt, ShardRun{Campaign: name, Index: 1, Total: 1, Path: p}); err != nil {
		t.Fatal(err)
	}

	other := opt
	other.Seeds = []uint64{12}
	rep, err := Status(other, []string{p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Campaigns[0].OptionsMatch || rep.Campaigns[0].Complete {
		t.Fatalf("fingerprint mismatch not detected: %+v", rep.Campaigns[0])
	}
	// The bundle itself is still self-complete, so nothing is resumable
	// under these options either.
	if rep.Resumable() {
		t.Fatal("mismatched-options report claims resumable work")
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Status(opt, []string{bad, p})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasErrors() || rep.Bundles[0].Error == "" {
		t.Fatalf("unreadable bundle not reported: %+v", rep.Bundles)
	}
	if len(rep.Campaigns) != 1 || !rep.Campaigns[0].Complete {
		t.Fatalf("readable bundle lost next to an unreadable one: %+v", rep.Campaigns)
	}

	if _, err := StatusPaths([]string{t.TempDir()}); err == nil {
		t.Error("StatusPaths over an empty dir succeeded")
	}
	if _, err := StatusPaths([]string{filepath.Join(dir, "missing")}); err == nil {
		t.Error("StatusPaths over a missing path succeeded")
	}
}

// -status turns a bundle storing a cell its campaign does not have
// into an error entry naming the cell, rather than counting it toward
// coverage.
func TestStatusRejectsUnknownCell(t *testing.T) {
	opt := shardTestOptions()
	p := unknownCellBundle(t, opt)
	rep, err := Status(opt, []string{p})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasErrors() || !strings.Contains(rep.Bundles[0].Error, "not-a-cell") {
		t.Fatalf("bundle with an unknown cell not reported: %+v", rep.Bundles)
	}
	for _, cs := range rep.Campaigns {
		if cs.Complete || cs.CellsDone > cs.CellsTotal {
			t.Fatalf("unknown cell counted toward coverage: %+v", cs)
		}
	}
}
