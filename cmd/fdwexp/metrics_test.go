package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fdw"
	"fdw/internal/expt"
	"fdw/internal/faults"
	"fdw/internal/obs"
	"fdw/internal/sched"
)

// meteredOpt is the CI-scale metered run: every quantity clamps to the
// 16-waveform floor, one seed.
func meteredOpt(workers int) fdw.ExperimentOptions {
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	opt.Workers = workers
	opt.Out = io.Discard
	opt.Obs = fdw.NewMetrics(nil)
	return opt
}

// snapshotJSON renders a snapshot in the -metrics file format.
func snapshotJSON(t *testing.T, s *obs.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteSnapshotJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dispatchMetrics runs one fdwexp experiment metered at the given -j
// and returns its -metrics bytes.
func dispatchMetrics(t *testing.T, cmd string, workers int) []byte {
	t.Helper()
	opt := meteredOpt(workers)
	if err := dispatch(cmd, opt, ""); err != nil {
		t.Fatal(err)
	}
	return snapshotJSON(t, opt.Obs.Snapshot())
}

// mergedMetrics merges bundles and returns the campaign rollup's bytes.
func mergedMetrics(t *testing.T, paths []string) []byte {
	t.Helper()
	opt := meteredOpt(1)
	opt.Obs = nil
	res, err := expt.MergeManifestFiles(opt, paths)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("merged bundles carry no metrics")
	}
	return snapshotJSON(t, res.Metrics)
}

// One rollup: every executor — in-process at any -j, hash shards
// (one killed and resumed) merged, the fault-tolerant scheduler's
// worker bundles merged — gives the same metrics bytes for every
// registered experiment.
func TestMetricsRollupByteIdentical(t *testing.T) {
	plan, err := faults.WorkerPlanByName("everything")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range expt.Campaigns() {
		t.Run(name, func(t *testing.T) {
			want := dispatchMetrics(t, name, 1)
			for _, workers := range []int{4, 8} {
				if got := dispatchMetrics(t, name, workers); !bytes.Equal(got, want) {
					t.Errorf("-j %d metrics differ from -j 1", workers)
				}
			}

			dir := t.TempDir()
			var paths []string
			for i := 1; i <= 3; i++ {
				run := expt.ShardRun{Campaign: name, Index: i, Total: 3,
					Path: filepath.Join(dir, fmt.Sprintf("%s.shard%dof3.json", name, i))}
				if i == 2 {
					killed := run
					killed.MaxCells = 1
					if _, err := expt.RunShard(meteredOpt(2), killed); err != nil && !errors.Is(err, expt.ErrIncomplete) {
						t.Fatal(err)
					}
					run.Resume = true
				}
				if _, err := expt.RunShard(meteredOpt(2), run); err != nil {
					t.Fatal(err)
				}
				paths = append(paths, run.Path)
			}
			if got := mergedMetrics(t, paths); !bytes.Equal(got, want) {
				t.Error("3-way shard merge metrics differ from -j 1")
			}

			h, err := expt.OpenCampaign(name, meteredOpt(1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(h, sched.Config{Workers: 3, Steal: true, Plan: plan, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if got := mergedMetrics(t, res.BundlePaths); !bytes.Equal(got, want) {
				t.Error("scheduler worker-bundle merge metrics differ from -j 1")
			}
		})
	}
}

// Every experiment of `fdwexp all`, run back to back, rolls its cells
// up in canonical order.
func TestAllMetricsIdenticalAcrossWorkers(t *testing.T) {
	if !bytes.Equal(dispatchMetrics(t, "all", 1), dispatchMetrics(t, "all", 8)) {
		t.Fatal("fdwexp all: -j 8 metrics differ from -j 1")
	}
}

// TestMetricsBytesPinned pins the -j 1 Fig. 2 snapshot at CI scale:
// any change to what a cell meters, or to how cells roll up, moves
// this hash and must be listed as a repin.
func TestMetricsBytesPinned(t *testing.T) {
	const want = "1b496eaa53bd8452df081940f64cd346f395c08b79f0006412b540d0c0051fd3"
	if got := fmt.Sprintf("%x", sha256.Sum256(dispatchMetrics(t, "fig2", 1))); got != want {
		t.Fatalf("fig2 -metrics sha256 %s, want %s", got, want)
	}
}

// fig1 meters its own rupture job's covariance-factor cache: one
// scenario, one factorization, one cached factor.
func TestFig1MetersItsFactorCache(t *testing.T) {
	opt := meteredOpt(1)
	opt.Scale = 0.03
	opt.Seeds = expt.Seeds(1)
	if err := dispatch("fig1", opt, ""); err != nil {
		t.Fatal(err)
	}
	snap := opt.Obs.Snapshot()
	got := map[string]float64{}
	for _, c := range snap.Counters {
		got[c.Name] += float64(c.Value)
	}
	for _, g := range snap.Gauges {
		got[g.Name] += g.Value
	}
	for name, want := range map[string]float64{
		"fdw_covcache_misses_total": 1,
		"fdw_covcache_entries":      1,
		"fdw_covcache_hits_total":   0,
	} {
		if got[name] != want {
			t.Errorf("fig1 -metrics %s = %v, want %v", name, got[name], want)
		}
	}
}

// -shard -metrics writes the shard's rollup through the helper -merge
// uses: a single 1/1 shard holds every cell, so its file matches the
// unsharded -metrics file byte for byte.
func TestShardWritesMetricsRollup(t *testing.T) {
	dir := t.TempDir()
	if err := runShardCmd(meteredOpt(2), "1/1", "fig2", dir, 0, false); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "metrics.json")
	if err := writeShardMetrics(out, "1/1", "fig2", dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dispatchMetrics(t, "fig2", 1)) {
		t.Fatal("-shard 1/1 -metrics differs from the unsharded -metrics file")
	}
}
