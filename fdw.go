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
//   - monitoring: ParseUserLog, AnalyzeEvents, per-second series;
//   - traces + bursting: BatchTrace, JobTrace, BurstConfig, Burst;
//   - experiment options for the fdwexp harness: ExperimentOptions;
//   - the FakeQuakes numeric kernels via GenerateScenario, which
//     recycles Phase A's distance matrices through the directory it
//     is given, as FDW does;
//   - the VDC catalog: Catalog and its HTTP portal, CatalogServer.
//
// Everything runs on a deterministic discrete-event clock: simulating
// a 35-hour OSG batch takes milliseconds and is reproducible by seed.
package fdw

import (
	"io"

	"fdw/internal/burst"
	"fdw/internal/core"
	"fdw/internal/expt"
	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/ospool"
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

// AnalyzeEvents reduces parsed user-log events into the FDW monitoring
// summary, the batch statistics the paper's log scripts compute.
var AnalyzeEvents = core.AnalyzeEvents

// SeriesPoint is a (time, value) sample of a per-second series.
type SeriesPoint = core.SeriesPoint

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

// ExperimentOptions configures the per-figure harnesses.
type ExperimentOptions = expt.Options

// DefaultExperimentOptions mirrors the paper: three reps, full scale.
func DefaultExperimentOptions() ExperimentOptions { return expt.DefaultOptions() }

// Scenario bundles one FakeQuakes rupture and its station waveforms.
type Scenario = expt.Fig1Products

// GenerateScenario runs the real numeric kernels end-to-end: a
// stochastic rupture of the target magnitude on a Chilean-style mesh
// and its synthetic GNSS displacement waveforms at nStations (1 to
// 121) stations. recycleDir holds Phase A's two distance-matrix .npy
// files, loaded when they fit and written otherwise; "" computes them
// and writes nothing. The scenario's bytes are the same either way.
func GenerateScenario(seed uint64, targetMw float64, nStations int, recycleDir string) (*Scenario, error) {
	return expt.Fig1(seed, targetMw, nStations, recycleDir, nil)
}

// Catalog is the VDC data-services product store.
type Catalog = vdc.Catalog

// Product is one curated data product.
type Product = vdc.Product

// NewCatalog returns an empty VDC catalog.
func NewCatalog() *Catalog { return vdc.NewCatalog() }

// LoadCatalog restores a catalog saved with Catalog.Save.
var LoadCatalog = vdc.LoadCatalog

// CatalogServer wraps a catalog in the VDC portal HTTP API.
type CatalogServer = vdc.Server

// NewCatalogServer builds the HTTP handler for a catalog.
func NewCatalogServer(c *Catalog) *CatalogServer { return vdc.NewServer(c) }
