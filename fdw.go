// Package fdw is the public API of the FakeQuakes DAGMan Workflow
// (FDW) reproduction: a high-throughput workflow system that
// parallelizes MudPy-style FakeQuakes earthquake simulations on a
// simulated Open Science Pool, plus the VDC cloud-bursting simulator
// and data-services catalog from Adair et al., "Accelerating
// Data-Intensive Seismic Research Through Parallel Workflow
// Optimization and Federated Cyberinfrastructure" (SC-W 2023).
//
// The package re-exports the library's stable surface:
//
//   - workflow execution: Config, Env, Workflow, RunBatch;
//   - monitoring: BatchStats, AnalyzeLog, per-second series;
//   - traces + bursting: BatchTrace, JobTrace, BurstConfig, Burst;
//   - the single-machine baseline: Baseline;
//   - experiment harnesses for every paper figure: Experiments;
//   - the FakeQuakes numeric kernels via GenerateScenario;
//   - the VDC catalog: Catalog, CatalogServer, CatalogClient.
//
// Everything runs on a deterministic discrete-event clock: simulating
// a 35-hour OSG batch takes milliseconds and is reproducible by seed.
package fdw

import (
	"fmt"
	"io"
	"math"

	"fdw/internal/baseline"
	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/expt"
	"fdw/internal/fakequakes"
	"fdw/internal/geom"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/recovery"
	"fdw/internal/sched"
	"fdw/internal/sim"
	"fdw/internal/vdc"
	"fdw/internal/wtrace"
)

// SimTime is simulated time in seconds.
type SimTime = sim.Time

// Config is an FDW workflow configuration (the user-edited file).
type Config = core.Config

// DefaultConfig returns the paper's default workflow setup.
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseConfig reads the FDW configuration-file syntax.
func ParseConfig(r io.Reader) (Config, error) { return core.ParseConfig(r) }

// WriteConfig renders cfg in the file syntax ParseConfig accepts.
func WriteConfig(w io.Writer, cfg Config) error { return core.WriteConfig(w, cfg) }

// PoolConfig parameterizes the simulated Open Science Pool.
type PoolConfig = ospool.Config

// DefaultPoolConfig returns the calibrated OSPool model.
func DefaultPoolConfig() PoolConfig { return ospool.DefaultConfig() }

// Env is a simulation environment: kernel + pool + stash cache.
type Env = core.Env

// NewEnv builds an environment with the given seed and pool model.
func NewEnv(seed uint64, pool PoolConfig) (*Env, error) { return core.NewEnv(seed, pool) }

// Metrics is the sim-clock-aware observability registry (counters,
// gauges, histograms, job-lifecycle spans). A nil *Metrics disables
// all instrumentation; either way simulation results are identical.
type Metrics = obs.Registry

// NewMetrics returns an empty registry. clock may be nil (timestamps
// read 0 until SetClock); an unclocked registry records no spans.
func NewMetrics(clock func() SimTime) *Metrics { return obs.NewRegistry(clock) }

// ReadMetricsSnapshot parses a JSON snapshot written by
// Metrics.WriteJSON (the `-metrics` dump of cmd/fdw and cmd/fdwexp).
var ReadMetricsSnapshot = obs.ReadSnapshot

// WriteMetricsSnapshot renders a snapshot in the same JSON format as
// Metrics.WriteJSON, so merged rollups and live dumps are
// interchangeable inputs to ReadMetricsSnapshot.
var WriteMetricsSnapshot = obs.WriteSnapshotJSON

// NewMeteredEnv is NewEnv plus a fresh Metrics registry clocked by the
// environment's kernel and attached to every subsystem; read it back
// via Env.Obs.
func NewMeteredEnv(seed uint64, pool PoolConfig) (*Env, error) {
	return core.NewMeteredEnv(seed, pool)
}

// MeterFactorCache mirrors the covariance factor cache's hit/miss
// tallies into reg (see GenerateScenario and the fakequakes kernels).
func MeterFactorCache(reg *Metrics) { fakequakes.DefaultFactorCache.SetObs(reg) }

// EnableGFCache turns on Green's-function recycling: scenario runs
// persist Phase B kernels as greens_<fingerprint>.npy under dir and
// every later run sharing the fault geometry, station set, and GF
// configuration loads them instead of recomputing — the paper's
// distance-matrix recycling applied to its dominant phase. Recycled
// kernels hold the exact computed bits, so enabling the cache never
// changes scenario output. An empty dir disables recycling again.
func EnableGFCache(dir string) {
	if dir == "" {
		fakequakes.DefaultGFCache = nil
		return
	}
	fakequakes.DefaultGFCache = fakequakes.NewGFCache(dir)
}

// Workflow is one FDW run (a DAGMan with its own schedd identity).
type Workflow = core.Workflow

// NewWorkflow wires an FDW run into an environment. logW, if non-nil,
// receives the HTCondor-format user log.
func NewWorkflow(cfg Config, env *Env, logW io.Writer) (*Workflow, error) {
	return core.NewWorkflow(cfg, env.Kernel, env.Pool, logW)
}

// RunBatch starts the workflows simultaneously and advances simulated
// time until all complete or the horizon passes.
func RunBatch(env *Env, workflows []*Workflow, horizon SimTime) error {
	return core.RunBatch(env, workflows, horizon)
}

// WriteArtifacts emits the on-disk HTCondor artifacts of a workflow:
// fdw.dag, per-phase submit files, and the configuration file.
var WriteArtifacts = core.WriteArtifacts

// BatchStats is the FDW monitoring summary computed from HTCondor logs.
type BatchStats = core.BatchStats

// AnalyzeLog parses HTCondor user-log text into BatchStats.
func AnalyzeLog(name string, r io.Reader) (*BatchStats, error) {
	return core.AnalyzeLog(name, r)
}

// AnalyzeEvents reduces already-parsed user-log events into BatchStats.
var AnalyzeEvents = core.AnalyzeEvents

// SeriesPoint is a (time, value) sample of a per-second series.
type SeriesPoint = core.SeriesPoint

// JobEvent is one parsed HTCondor user-log event.
type JobEvent = htcondor.JobEvent

// ParseUserLog parses HTCondor user-log text into events.
var ParseUserLog = htcondor.ParseUserLog

// InstantThroughputSeries computes the per-step instant throughput
// (formula (5)) from a user-log event stream.
var InstantThroughputSeries = core.InstantThroughputSeries

// RunningJobsSeries computes the per-step running-job count from a
// user-log event stream (the Fig. 4 footprint).
var RunningJobsSeries = core.RunningJobsSeries

// BatchTrace is the DAGMan batch row of the bursting simulator's
// two-CSV input.
type BatchTrace = wtrace.BatchRecord

// JobTrace is one job's row of the bursting simulator's input.
type JobTrace = wtrace.JobRecord

// TraceFromWorkflow extracts the (batch, jobs) trace of a finished run.
func TraceFromWorkflow(w *Workflow) (BatchTrace, []JobTrace, error) {
	return wtrace.FromSchedd(w.Cfg.Name, w.Schedd)
}

// WriteBatchCSV / ReadBatchCSV / WriteJobsCSV / ReadJobsCSV round-trip
// the simulator's CSV formats.
var (
	WriteBatchCSV = wtrace.WriteBatchCSV
	ReadBatchCSV  = wtrace.ReadBatchCSV
	WriteJobsCSV  = wtrace.WriteJobsCSV
	ReadJobsCSV   = wtrace.ReadJobsCSV
)

// BurstConfig selects bursting policies and constants.
type BurstConfig = burst.Config

// BurstPolicy1 addresses low throughput (probe + threshold).
type BurstPolicy1 = burst.Policy1

// BurstPolicy2 addresses congested queues (max queue time).
type BurstPolicy2 = burst.Policy2

// BurstPolicy3 addresses submission gaps (max gap + probe).
type BurstPolicy3 = burst.Policy3

// BurstResult is one bursting simulation's report.
type BurstResult = burst.Result

// DefaultBurstConfig returns the paper's constants, no policies.
func DefaultBurstConfig() BurstConfig { return burst.DefaultConfig() }

// Burst replays a batch trace under the configured policies.
func Burst(batch BatchTrace, jobs []JobTrace, cfg BurstConfig) (*BurstResult, error) {
	return burst.Simulate(batch, jobs, cfg)
}

// WriteBurstSeriesCSV writes a result's per-second instant-throughput
// series — the simulator's .csv output in the paper.
var WriteBurstSeriesCSV = burst.WriteSeriesCSV

// BaselineMachine is the single-host comparator.
type BaselineMachine = baseline.Machine

// BaselineBreakdown details the single-host stage times.
type BaselineBreakdown = baseline.Breakdown

// AWSBaseline returns the paper's 4-core AWS instance.
func AWSBaseline() BaselineMachine { return baseline.AWSInstance() }

// Baseline estimates single-machine wall time for cfg's workload.
func Baseline(m BaselineMachine, cfg Config) (BaselineBreakdown, error) {
	return baseline.Run(m, cfg)
}

// ExperimentOptions configures the per-figure harnesses.
type ExperimentOptions = expt.Options

// DefaultExperimentOptions mirrors the paper: three reps, full scale.
func DefaultExperimentOptions() ExperimentOptions { return expt.DefaultOptions() }

// Adaptive recovery layer (internal/recovery): deterministic retry
// backoff, per-site circuit breakers, job wall-clock deadlines, and
// straggler hedging, attached to a pool/workflow through the same
// hook seams the fault engine uses (DESIGN.md §11).
type RecoveryConfig = recovery.Config

// DefaultRecoveryConfig enables all four recovery mechanisms with the
// chaos-sweep-tuned defaults.
func DefaultRecoveryConfig() RecoveryConfig { return recovery.DefaultConfig() }

// Experiment harness entry points (see DESIGN.md's experiment index).
var (
	Fig2     = expt.Fig2
	Fig3     = expt.Fig3
	Fig4     = expt.Fig4
	Fig5     = expt.Fig5
	Fig6     = expt.Fig6
	Headline = expt.Headline
	Fig1     = expt.Fig1

	// Extensions beyond the paper's evaluation (DESIGN.md §6):
	// ablations of FDW design choices, the Policy-3 sweep the paper
	// describes but does not run, and the future-work elastic policy.
	AblationRecycling = expt.AblationRecycling
	AblationStash     = expt.AblationStash
	AblationFanout    = expt.AblationFanout
	AblationChurn     = expt.AblationChurn
	Policy3Sweep      = expt.Policy3Sweep
	ElasticComparison = expt.ElasticComparison

	// Chaos is the fault-injection sweep: the Fig. 2-scale workflow
	// under every standard fault plan, with termination, conservation,
	// and determinism invariants enforced (DESIGN.md §10).
	Chaos = expt.Chaos
)

// Distributed campaigns (DESIGN.md §13, §16): a sharded or scheduled
// campaign that stops early on its -cells budget returns
// ErrShardIncomplete, leaving resumable bundles on disk;
// SchedWorkerBundlePath names a scheduler worker's bundle.
var (
	ErrShardIncomplete    = expt.ErrIncomplete
	SchedWorkerBundlePath = sched.WorkerBundlePath
)

// Scenario bundles one FakeQuakes rupture and its station waveforms.
type Scenario struct {
	Rupture   *fakequakes.Rupture
	Waveforms []fakequakes.Waveform
	Stations  []geom.Station
	Fault     *geom.Fault
}

// HypocentralDistanceKm returns the 3-D distance from the scenario's
// hypocenter to the i-th station.
func (s *Scenario) HypocentralDistanceKm(i int) float64 {
	hypo := &s.Fault.Subfaults[s.Rupture.Hypocenter]
	surf := geom.HaversineKm(s.Stations[i].Pos, hypo.Center)
	return math.Sqrt(surf*surf + hypo.DepthKm*hypo.DepthKm)
}

// GenerateScenario runs the real numeric kernels end-to-end: a
// stochastic rupture of the target magnitude on a Chilean-style mesh
// and its synthetic GNSS displacement waveforms at nStations stations.
func GenerateScenario(seed uint64, targetMw float64, nStations int) (*Scenario, error) {
	p, err := expt.Fig1(seed, targetMw, nStations)
	if err != nil {
		return nil, err
	}
	return &Scenario{Rupture: p.Rupture, Waveforms: p.Waveforms, Stations: p.Stations, Fault: p.Fault}, nil
}

// Catalog is the VDC data-services product store.
type Catalog = vdc.Catalog

// Product is one curated data product.
type Product = vdc.Product

// CatalogQuery filters catalog searches.
type CatalogQuery = vdc.Query

// NewCatalog returns an empty VDC catalog.
func NewCatalog() *Catalog { return vdc.NewCatalog() }

// LoadCatalog restores a catalog saved with Catalog.Save.
var LoadCatalog = vdc.LoadCatalog

// CatalogServer wraps a catalog in the VDC portal HTTP API.
type CatalogServer = vdc.Server

// NewCatalogServer builds the HTTP handler for a catalog.
func NewCatalogServer(c *Catalog) *CatalogServer { return vdc.NewServer(c) }

// CatalogClient talks to a VDC portal.
type CatalogClient = vdc.Client

// DepositProducts archives a finished workflow's data products into a
// VDC catalog — the paper's post-simulation step ("thousands of files
// are congregated, labeled, and archived") feeding the Fig. 7
// pipeline. It deposits one rupture-set, one Green's-function archive,
// and one waveform-set product per batch, tagged for EEW discovery,
// and returns the assigned product ids.
func DepositProducts(w *Workflow, c *Catalog) ([]string, error) {
	if !w.Done() {
		return nil, fmt.Errorf("fdw: workflow %q has not finished", w.Cfg.Name)
	}
	_, aJobs, _, cJobs, _ := w.Cfg.JobCounts()
	products := []Product{
		{
			Name: w.Cfg.Name + " ruptures", Type: vdc.TypeRupture,
			Batch: w.Cfg.Name, Region: "chile", Mw: w.Cfg.MaxMw,
			SizeBytes:   int64(aJobs) * 4e6,
			Tags:        []string{"eew", "fakequakes"},
			Description: fmt.Sprintf("%d stochastic rupture scenarios, Mw %.1f-%.1f", w.Cfg.Waveforms, w.Cfg.MinMw, w.Cfg.MaxMw),
		},
		{
			Name: w.Cfg.Name + " greens functions", Type: vdc.TypeGF,
			Batch: w.Cfg.Name, Region: "chile",
			SizeBytes:   int64(1.05e9),
			Tags:        []string{"recyclable"},
			Description: fmt.Sprintf("%d-station GF archive (.mseed)", w.Cfg.Stations),
		},
		{
			Name: w.Cfg.Name + " waveforms", Type: vdc.TypeWaveform,
			Batch: w.Cfg.Name, Region: "chile", Mw: w.Cfg.MaxMw,
			SizeBytes:   int64(cJobs) * 5e6,
			Tags:        []string{"eew", "training", "gnss"},
			Description: fmt.Sprintf("%d synthetic high-rate GNSS displacement waveforms", w.Cfg.Waveforms),
		},
	}
	ids := make([]string, 0, len(products))
	for _, p := range products {
		id, err := c.Deposit(p)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// NewCatalogClient returns a client for the portal at baseURL.
func NewCatalogClient(baseURL string) *CatalogClient { return vdc.NewClient(baseURL) }
