package fdw_test

// One benchmark per table/figure in the paper's evaluation (see
// DESIGN.md §4). Each bench regenerates its figure at a reduced scale
// so the full suite runs in seconds; `go run ./cmd/fdwexp -scale 1 all`
// regenerates the paper-scale numbers recorded in EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"math"
	"testing"

	"fdw"
	"fdw/internal/expt"
	"fdw/internal/fakequakes"
	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/sim"
)

// benchOptions shrinks the workloads: one repetition, 3% scale.
func benchOptions() fdw.ExperimentOptions {
	opt := fdw.DefaultExperimentOptions()
	opt.Seeds = []uint64{11}
	opt.Scale = 0.03
	return opt
}

// BenchmarkFig1RuptureWaveform generates the Fig. 1 data products with
// the real numeric kernels: a stochastic rupture and GNSS waveforms.
func BenchmarkFig1RuptureWaveform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig1(uint64(i+1), 8.1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2QuantitySweep reruns the increasing-quantities
// experiment: six waveform quantities × two station lists.
func BenchmarkFig2QuantitySweep(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("fig2", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ConcurrentDAGMans reruns the 1/2/4/8 concurrent-DAGMan
// partitioning comparison.
func BenchmarkFig3ConcurrentDAGMans(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("fig3", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4JobTimeSeries reruns the per-job execution/wait
// distribution and per-second footprint collection.
func BenchmarkFig4JobTimeSeries(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("fig4", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Bursting reruns the uncapped probe×queue bursting sweep
// over two generated batch traces.
func BenchmarkFig5Bursting(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("fig5", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6BurstingCost reruns the sweep with the 30% cap — the
// Fig. 6 cost/runtime comparison.
func BenchmarkFig6BurstingCost(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("fig6", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeadlineSpeedup reruns the §6 FDW-vs-single-machine
// comparison and the 1,024→50,000 throughput gain.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	opt := benchOptions()
	opt.Scale = 0.1
	for i := 0; i < b.N; i++ {
		opt.Seeds = []uint64{uint64(11 + i)}
		if _, err := expt.Run("headline", opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- numeric-kernel benchmarks (see BENCH_kernels.json for the
// recorded baseline) -------------------------------------------------
//
// Each linalg kernel has one entry point, which fans out on its own
// above the size and GOMAXPROCS cutoffs; run with -cpu 1,4 to see the
// multi-core speedup. The retained pre-blocking specs are benched in
// internal/linalg/reference_test.go.

// kernelSizes straddle the paper-scale covariance sizes (a Mw 8–9 patch
// on the 10 km Chilean mesh is a few hundred to ~1,000 subfaults).
var kernelSizes = []int{256, 512, 1024}

// benchSPD builds a covariance-like SPD matrix (exponential decay).
func benchSPD(n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = math.Exp(-math.Abs(float64(i-j)) / (float64(n) / 8))
		}
	}
	return m.AddDiag(1e-9)
}

// BenchmarkCholesky factorizes covariance-sized SPD matrices with the
// blocked kernel.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range kernelSizes {
		m := benchSPD(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.Cholesky(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGenerateScenario runs the full FakeQuakes numeric pipeline
// (distance matrices, covariance, Cholesky, waveform synthesis) for a
// large-patch magnitude. The warm variant reuses the shared
// covariance-factor cache across iterations — the batch-of-ruptures
// case the cache exists for; cold forces a fresh O(n³) factorization
// every scenario, the pre-cache behaviour.
func BenchmarkGenerateScenario(b *testing.B) {
	const mw = 8.8 // large patch, sizeable covariance
	b.Run("warm-factor-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fdw.GenerateScenario(uint64(i+1), mw, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold-factor-cache", func(b *testing.B) {
		old := fakequakes.DefaultFactorCache
		fakequakes.DefaultFactorCache = nil
		defer func() { fakequakes.DefaultFactorCache = old }()
		for i := 0; i < b.N; i++ {
			if _, err := fdw.GenerateScenario(uint64(i+1), mw, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGreens measures Phase B: cold computes the Green's-function
// kernels from scratch; warm recycles the persisted .npy via GFCache —
// the campaign-sharing-geometry case the cache exists for.
func BenchmarkGreens(b *testing.B) {
	cfg := geom.DefaultChileFault()
	cfg.SubfaultKm = 25
	fault, err := geom.BuildFault(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stations := geom.FullChileanStations()[:4]
	dist := fakequakes.ComputeDistanceMatrices(fault, stations)
	gfCfg := fakequakes.DefaultGFConfig()
	b.Run("cold-compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fakequakes.ComputeGreens(fault, stations, dist, gfCfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-gfcache", func(b *testing.B) {
		c := fakequakes.NewGFCache(b.TempDir())
		if _, _, err := c.LoadOrCompute(fault, stations, dist, gfCfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := c.LoadOrCompute(fault, stations, dist, gfCfg); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// BenchmarkSynthesize measures Phase C at the paper's geometry: one
// Mw 8.5 rupture (the middle of the generator's range) synthesized
// into GNSS waveforms at all 121 stations from the 20 km mesh's
// kernels (500 subfaults × 512 samples), noise included.
func BenchmarkSynthesize(b *testing.B) {
	cfg := geom.DefaultChileFault()
	cfg.SubfaultKm = 20
	fault, err := geom.BuildFault(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stations := geom.FullChileanStations()
	dist := fakequakes.ComputeDistanceMatrices(fault, stations)
	gen, err := fakequakes.NewGenerator(fault, dist)
	if err != nil {
		b.Fatal(err)
	}
	gen.Kern = fakequakes.VonKarmanApprox
	r, err := gen.GenerateMw("bench", 8.5, sim.NewRNG(11))
	if err != nil {
		b.Fatal(err)
	}
	g, err := fakequakes.ComputeGreens(fault, stations, dist, fakequakes.DefaultGFConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fakequakes.SynthesizeWaveforms(r, g, fakequakes.DefaultNoise(), sim.NewRNG(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkflow16k measures one full-scale 16,000-waveform DAGMan
// (1,600 under -short) on the simulated pool — the unit of the paper's
// §4.2 experiment — to document simulator throughput (simulated hours
// per wall second). BENCH_workflow.json records both sizes.
func BenchmarkWorkflow16k(b *testing.B) {
	waveforms := 16000
	if testing.Short() {
		waveforms = 1600
	}
	for i := 0; i < b.N; i++ {
		env, err := fdw.NewEnv(uint64(31+i), fdw.DefaultPoolConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := fdw.DefaultConfig()
		cfg.Name = "bench16k"
		cfg.Waveforms = waveforms
		cfg.Seed = uint64(31 + i)
		w, err := fdw.NewWorkflow(cfg, env, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 1000*3600); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBurstReplay measures the VDC bursting simulator's replay
// loop alone: one 16,000-waveform DAGMan trace (1,600 under -short),
// built outside the timer, replayed per op under the Fig. 6 probe-1 s
// cell — Policy 1 at a 1 s probe plus Policy 2 at 90 min — with the
// paper's 30 % burst cap. simsecs/op is the replayed runtime, which no
// speed-up may change.
func BenchmarkBurstReplay(b *testing.B) {
	waveforms := 16000
	if testing.Short() {
		waveforms = 1600
	}
	env, err := fdw.NewEnv(31, fdw.DefaultPoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := fdw.DefaultConfig()
	cfg.Name = "burst-replay"
	cfg.Waveforms = waveforms
	cfg.Seed = 31
	w, err := fdw.NewWorkflow(cfg, env, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 1000*3600); err != nil {
		b.Fatal(err)
	}
	batch, jobs, err := fdw.TraceFromWorkflow(w)
	if err != nil {
		b.Fatal(err)
	}
	bc := fdw.DefaultBurstConfig()
	bc.P1 = &fdw.BurstPolicy1{ProbeSecs: 1, ThresholdJPM: 34}
	bc.P2 = &fdw.BurstPolicy2{MaxQueueSecs: 90 * 60}
	b.ResetTimer()
	var res *fdw.BurstResult
	for i := 0; i < b.N; i++ {
		if res, err = fdw.Burst(batch, jobs, bc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RuntimeSecs, "simsecs/op")
}

// BenchmarkChaosCampaign measures the recovery layer end to end: one op
// runs every cell of the chaos campaign (each standard fault plan with
// recovery off and on) at scale 1 over the paper's seeds 11/23/47, one
// worker, each cell through the handle the scheduler drives. See
// BENCH_recovery.json for the recorded baseline.
func BenchmarkChaosCampaign(b *testing.B) {
	opt := expt.DefaultOptions()
	opt.Scale = 1
	opt.Seeds = []uint64{11, 23, 47}
	opt.Workers = 1
	opt.Out = io.Discard
	h, err := expt.OpenCampaign("chaos", opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range h.CellIDs() {
			if _, err := h.RunCell(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}
