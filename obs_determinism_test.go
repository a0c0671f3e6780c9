package fdw_test

// The observability layer is strictly passive: attaching a metrics
// registry to an experiment must not change a single byte of the
// printed reports or CSVs, at any worker count. This is the repo-level
// guard for the internal/obs "record, never decide" contract.

import (
	"bytes"
	"testing"

	"fdw"
	"fdw/internal/expt"
)

// figureOutput runs one experiment at toy scale and returns the
// printed report and the bytes of every CSV it declares.
func figureOutput(t *testing.T, name string, metered bool, workers int) (report, csv []byte) {
	t.Helper()
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002 // clamps every quantity to the 16-waveform floor
	opt.Seeds = []uint64{11}
	opt.Workers = workers
	var out bytes.Buffer
	opt.Out = &out
	if metered {
		opt.Obs = fdw.NewMetrics(nil)
	}
	res, err := expt.Run(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	for _, c := range res.CSVs {
		if err := c.Write(&csvBuf); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes(), csvBuf.Bytes()
}

func TestFiguresIdenticalWithMetricsEnabled(t *testing.T) {
	baseReport, baseCSV := figureOutput(t, "fig2", false, 1)
	if len(baseReport) == 0 || len(baseCSV) == 0 {
		t.Fatal("baseline fig2 produced no output")
	}
	for _, c := range []struct {
		name    string
		metered bool
		workers int
	}{
		{"plain-j4", false, 4},
		{"metered-j1", true, 1},
		{"metered-j4", true, 4},
	} {
		report, csv := figureOutput(t, "fig2", c.metered, c.workers)
		if !bytes.Equal(report, baseReport) {
			t.Errorf("fig2 report differs for %s", c.name)
		}
		if !bytes.Equal(csv, baseCSV) {
			t.Errorf("fig2 CSV differs for %s", c.name)
		}
	}

	burstReport, burstCSV := figureOutput(t, "fig5", false, 1)
	meteredReport, meteredCSV := figureOutput(t, "fig5", true, 4)
	if !bytes.Equal(burstReport, meteredReport) {
		t.Error("fig5 report differs with metrics enabled")
	}
	if !bytes.Equal(burstCSV, meteredCSV) {
		t.Error("fig5 CSV differs with metrics enabled")
	}
}

// TestMeteredRunRecordsActivity guards against the inverse failure:
// metrics silently wired to nothing. A metered Fig. 2 run must leave
// real counts behind.
func TestMeteredRunRecordsActivity(t *testing.T) {
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	opt.Workers = 4
	opt.Obs = fdw.NewMetrics(nil)
	if _, err := expt.Run("fig2", opt); err != nil {
		t.Fatal(err)
	}
	snap := opt.Obs.Snapshot()
	var submissions uint64
	for _, c := range snap.Counters {
		if c.Name == "fdw_dagman_node_submissions_total" {
			submissions += c.Value
		}
	}
	if submissions == 0 {
		t.Fatal("metered run recorded no DAGMan node submissions")
	}
	if len(snap.Histograms) == 0 {
		t.Fatal("metered run recorded no histograms")
	}
}
