package fdw_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fdw"
	"fdw/internal/baseline"
	"fdw/internal/core"
	"fdw/internal/expt"
)

// TestPublicAPIEndToEnd drives the full public surface: configure →
// run on the pool → monitor from the log → trace → burst → catalog.
func TestPublicAPIEndToEnd(t *testing.T) {
	env, err := fdw.NewEnv(5, fdw.DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fdw.DefaultConfig()
	cfg.Name = "api-e2e"
	cfg.Waveforms = 200
	cfg.Stations = 2
	cfg.Seed = 5

	var logBuf bytes.Buffer
	w, err := fdw.NewWorkflow(cfg, env, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 48*3600); err != nil {
		t.Fatal(err)
	}
	if !w.Done() || w.RuntimeHours() <= 0 {
		t.Fatalf("workflow state: done=%v runtime=%v", w.Done(), w.RuntimeHours())
	}

	// Monitoring round trip through the HTCondor log text.
	events, err := fdw.ParseUserLog(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fdw.AnalyzeEvents(cfg.Name, events)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CompletedJobs != w.Schedd.Completed() {
		t.Fatalf("log stats %d completed, schedd says %d", stats.CompletedJobs, w.Schedd.Completed())
	}

	// Trace round trip through the CSV formats.
	batch, jobs, err := fdw.TraceFromWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	var bcsv, jcsv bytes.Buffer
	if err := fdw.WriteBatchCSV(&bcsv, batch); err != nil {
		t.Fatal(err)
	}
	if err := fdw.WriteJobsCSV(&jcsv, jobs); err != nil {
		t.Fatal(err)
	}
	batch2, err := fdw.ReadBatchCSV(&bcsv)
	if err != nil {
		t.Fatal(err)
	}
	jobs2, err := fdw.ReadJobsCSV(&jcsv)
	if err != nil {
		t.Fatal(err)
	}
	if batch2 != batch || len(jobs2) != len(jobs) {
		t.Fatal("trace CSV round trip changed data")
	}

	// Bursting on the trace.
	bc := fdw.DefaultBurstConfig()
	bc.P1 = &fdw.BurstPolicy1{ProbeSecs: 5, ThresholdJPM: 34}
	res, err := fdw.Burst(batch2, jobs2, bc)
	if err != nil {
		t.Fatal(err)
	}
	control, err := fdw.Burst(batch2, jobs2, fdw.DefaultBurstConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgInstantJPM < control.AvgInstantJPM {
		t.Fatalf("bursting AIT %v below control %v", res.AvgInstantJPM, control.AvgInstantJPM)
	}
	var seriesCSV bytes.Buffer
	if err := fdw.WriteBurstSeriesCSV(&seriesCSV, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(seriesCSV.String(), "second,instant_jpm") {
		t.Fatal("series CSV malformed")
	}

	// Catalog over HTTP: deposit, tag, search, get.
	portal := httptest.NewServer(fdw.NewCatalogServer(fdw.NewCatalog()))
	defer portal.Close()
	do := func(method, path, body string, want int, out any) {
		t.Helper()
		req, err := http.NewRequest(method, portal.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s → %d, want %d", method, path, resp.StatusCode, want)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	var created struct{ ID string }
	do("POST", "/products", `{"name":"api-e2e waveforms","type":"waveform","batch":"api-e2e","region":"chile","mw":8.2}`, http.StatusCreated, &created)
	var tagged map[string]string
	do("POST", "/products/"+created.ID+"/tags", `["eew"]`, http.StatusOK, &tagged)
	var found []fdw.Product
	do("GET", "/products?tag=eew&min_mw=8", "", http.StatusOK, &found)
	if len(found) != 1 || found[0].ID != created.ID {
		t.Fatalf("catalog search %+v, want %s", found, created.ID)
	}
	var got fdw.Product
	do("GET", "/products/"+created.ID, "", http.StatusOK, &got)
	if got.Batch != cfg.Name || !got.HasTag("eew") || got.Accesses != 1 {
		t.Fatalf("catalog product %+v", got)
	}
}

func TestBaselineComparison(t *testing.T) {
	cfg := fdw.DefaultConfig()
	bl, err := baseline.Run(baseline.AWSInstance(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bl.TotalHours() <= 0 {
		t.Fatal("degenerate baseline")
	}
}

func TestGenerateScenarioPublic(t *testing.T) {
	sc, err := fdw.GenerateScenario(9, 8.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Rupture == nil || len(sc.Waveforms) != 2 || len(sc.Stations) != 2 {
		t.Fatalf("scenario %+v", sc)
	}
}

func TestConfigFileRoundTripPublic(t *testing.T) {
	cfg := fdw.DefaultConfig()
	cfg.Waveforms = 4321
	var buf bytes.Buffer
	if err := core.WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := fdw.ParseConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatal("config round trip changed values")
	}
}

// TestEnabledRecoveryOnCleanRun: the recovery policy on a fault-free
// workload (the chaos sweep's baseline plan) must not degrade the
// result — the DAG still completes with no failed jobs. Backoff,
// breakers and deadlines only act on failures; hedging may act, but
// first-finisher-wins can only move completion earlier.
func TestEnabledRecoveryOnCleanRun(t *testing.T) {
	opt := fdw.DefaultExperimentOptions()
	opt.Scale = 0.002
	opt.Seeds = []uint64{11}
	res, err := expt.Run("chaos", opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.([]expt.ChaosRow)
	seen := false
	for _, r := range rows {
		if r.Plan != "baseline" || !r.Recovery {
			continue
		}
		seen = true
		if !r.DAGDone || r.DAGFailed || r.FailedJobs != 0 || r.RuntimeH <= 0 || r.GoodputJPM <= 0 {
			t.Fatalf("degenerate fault-free row with recovery on: %+v", r)
		}
	}
	if !seen {
		t.Fatal("no recovery-on baseline row")
	}
}
