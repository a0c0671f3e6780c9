package core

import (
	"fmt"
	"strconv"
	"strings"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

// The work model maps FDW job types to nominal execution times and
// transfer sizes on a reference 4-core OSPool slot. The constants are
// calibrated to the paper's §5.2.3 observations:
//
//   - rupture (phase A) jobs: ≈2.5 minutes, independent of station list;
//   - waveform (phase C) jobs: 15–20 minutes with the full 121-station
//     input, under a minute with the 2-station input — modelled as a
//     base cost plus a per-station cost;
//   - the single phase B (Green's functions) job: "multiple hours
//     depending on the length of [the] input list of GNSS stations";
//   - the optional matrix job: tens of minutes (the reason recycling
//     the .npy files is "crucial").
const (
	ruptureJobSecs     = 150.0 // ≈2.5 min
	waveformBaseSecs   = 30.0
	waveformPerStation = 8.4 // 121 stations → ≈1046 s ≈ 17.4 min
	gfPerStationSecs   = 60.0
	matrixJobSecs      = 1200.0

	// Input artifact sizes (bytes) for the Stash-cache model.
	singularityImageBytes = 928e6 // the paper's 928 MB image
	npyMatricesBytes      = 180e6
	gfArchiveBytes        = 1.05e9 // ">1GB" compressed .mseed
	rupturePayloadBytes   = 4e6
	waveformPayloadBytes  = 2.5e6
)

// Phase identifies an FDW workflow phase.
type Phase string

// FDW phases. Matrix is the optional .npy generation pre-step.
const (
	PhaseMatrix Phase = "matrix"
	PhaseA      Phase = "A"
	PhaseB      Phase = "B"
	PhaseC      Phase = "C"
)

// WaveformJobSecs returns the nominal phase C job time for a station
// list of length n (waveformsPerJob waveforms per job).
func WaveformJobSecs(stations, waveformsPerJob int) float64 {
	per := waveformBaseSecs + waveformPerStation*float64(stations)
	return per * float64(waveformsPerJob) / 2 // calibrated for 2 wf/job
}

// RuptureJobSecs returns the nominal phase A job time
// (rupturesPerJob ruptures per job).
func RuptureJobSecs(rupturesPerJob int) float64 {
	return ruptureJobSecs * float64(rupturesPerJob) / 16 // calibrated for 16/job
}

// GFJobSecs returns the nominal phase B time for n stations.
func GFJobSecs(stations int) float64 { return gfPerStationSecs * float64(stations) }

// MatrixJobSecs returns the nominal distance-matrix generation time.
func MatrixJobSecs() float64 { return matrixJobSecs }

// phaseJob returns the number of jobs in one phase of cfg's workflow
// and the nominal job they all copy: executable, resource requests,
// retry budget, nominal execution time and transfer sizes. It is the
// one source for both the jobs the simulator runs (buildJobs) and the
// submit files a real run submits (WriteArtifacts).
func phaseJob(cfg Config, phase Phase) (int, htcondor.Job, error) {
	// The image and the recycled .npy matrices are shared across all
	// FDW runs; the phase B Green's-function archive is specific to one
	// workflow's ruptures, so phase C inputs are keyed per run.
	j := htcondor.Job{
		Executable:      fmt.Sprintf("fdw_phase_%s.sh", phase),
		RequestCpus:     4,
		RequestMemoryMB: 8192,
		RequestDiskMB:   16384,
		Requirements:    `(TARGET.HasSingularity == true)`,
		MaxRetries:      3,
	}
	_, aJobs, bJobs, cJobs, _ := cfg.JobCounts()
	n := 1
	switch phase {
	case PhaseMatrix:
		j.BaseExecSeconds = MatrixJobSecs()
		j.InputBytes = int64(singularityImageBytes)
		j.OutputBytes = int64(npyMatricesBytes)
		j.InputKey = "fdw/image"
	case PhaseA:
		n = aJobs
		j.BaseExecSeconds = RuptureJobSecs(cfg.RupturesPerJob)
		j.InputBytes = int64(singularityImageBytes + npyMatricesBytes)
		j.OutputBytes = int64(rupturePayloadBytes)
		j.InputKey = "fdw/image+npy"
	case PhaseB:
		n = bJobs
		j.BaseExecSeconds = GFJobSecs(cfg.Stations)
		j.InputBytes = int64(singularityImageBytes + npyMatricesBytes)
		j.OutputBytes = int64(gfArchiveBytes)
		j.InputKey = "fdw/image+npy"
	case PhaseC:
		n = cJobs
		j.BaseExecSeconds = WaveformJobSecs(cfg.Stations, cfg.WaveformsPerJob)
		j.InputBytes = int64(singularityImageBytes + npyMatricesBytes + gfArchiveBytes)
		j.OutputBytes = int64(waveformPayloadBytes * float64(cfg.WaveformsPerJob))
		j.InputKey = "fdw/" + cfg.Name + "/image+npy+gf"
	default:
		return 0, j, fmt.Errorf("core: unknown phase %q", phase)
	}
	return n, j, nil
}

// jobChunk is how many jobs buildJobs carves from one allocation. One
// slab per phase instead raised peak memory for no speed (DESIGN.md
// §12).
const jobChunk = 64

// buildJobs materializes the OSG jobs for one phase of cfg's workflow.
// Per-job variation (±10% truncated normal) models input-dependent
// cost differences; the pool adds site-speed and scheduling variation
// on top.
func buildJobs(cfg Config, phase Phase, owner string, rng *sim.RNG) ([]*htcondor.Job, error) {
	n, nominal, err := phaseJob(cfg, phase)
	if err != nil {
		return nil, err
	}
	base := nominal.BaseExecSeconds
	// Each job's arguments, "--batch <name> --task <i>", are a slice of
	// one string that holds the whole phase's.
	prefix := "--batch " + cfg.Name + " --task "
	var digits [20]byte
	var all strings.Builder
	all.Grow(n * (len(prefix) + len(strconv.AppendInt(digits[:0], int64(n), 10))))
	for i := 0; i < n; i++ {
		all.WriteString(prefix)
		all.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	args := all.String()
	jobs := make([]*htcondor.Job, n)
	var chunk []htcondor.Job
	off := 0
	for i := range jobs {
		if len(chunk) == 0 {
			chunk = make([]htcondor.Job, min(jobChunk, n-i))
		}
		j := &chunk[0]
		chunk = chunk[1:]
		*j = nominal
		j.Owner = owner
		end := off + len(prefix) + len(strconv.AppendInt(digits[:0], int64(i), 10))
		j.Arguments = args[off:end]
		off = end
		j.BaseExecSeconds = rng.TruncNormal(base, base*0.05, base*0.9, base*1.1)
		jobs[i] = j
	}
	return jobs, nil
}
