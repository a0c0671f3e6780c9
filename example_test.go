package fdw_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"fdw"
)

// Example runs one FDW workflow end to end on the simulated Open
// Science Pool, then recomputes its statistics from the HTCondor user
// log it wrote: the round trip the paper's monitoring scripts make.
func Example() {
	// A simulation environment: deterministic kernel, OSPool model and
	// stash cache, all seeded.
	env, err := fdw.NewEnv(42, fdw.DefaultPoolConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 2,000 waveforms from the small (2-station) Chilean input.
	cfg := fdw.DefaultConfig()
	cfg.Name = "quickstart"
	cfg.Waveforms = 2000
	cfg.Stations = 2
	cfg.Seed = 42

	var condorLog bytes.Buffer
	w, err := fdw.NewWorkflow(cfg, env, &condorLog)
	if err != nil {
		log.Fatal(err)
	}
	if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 48*3600); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workflow %q: %.2f simulated hours, %.1f jobs/min\n",
		cfg.Name, w.RuntimeHours(), w.ThroughputJPM())

	// Monitoring: parse the log back into batch statistics.
	events, err := fdw.ParseUserLog(&condorLog)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := fdw.AnalyzeEvents(cfg.Name, events)
	if err != nil {
		log.Fatal(err)
	}
	if err := stats.Report(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// Output:
	// workflow "quickstart": 0.33 simulated hours, 56.7 jobs/min
	// batch quickstart
	//   runtime          0.33 h
	//   jobs             1126 total, 1126 completed, 0 aborted, 4 evictions
	//   total throughput 56.73 jobs/min
	//   exec time        mean 1.3 min (sd 0.6, min 0.6, max 4.9)
	//   wait time        mean 4.4 min (sd 2.1, min 0.4, max 7.9)
}

// ExampleBurst extracts the job-time trace of a finished batch (the
// bursting simulator's two-CSV input) and replays it without policies
// and under the three VDC bursting policies: a reduced Fig. 5/6.
func ExampleBurst() {
	env, err := fdw.NewEnv(31, fdw.DefaultPoolConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := fdw.DefaultConfig()
	cfg.Name = "burst-demo"
	cfg.Waveforms = 1000
	cfg.Seed = 31
	w, err := fdw.NewWorkflow(cfg, env, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 1000*3600); err != nil {
		log.Fatal(err)
	}
	batch, jobs, err := fdw.TraceFromWorkflow(w)
	if err != nil {
		log.Fatal(err)
	}

	control, err := fdw.Burst(batch, jobs, fdw.DefaultBurstConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := control.Report(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Policy 1 (probe, 34 JPM threshold) with Policy 2 (90-minute
	// queue cap) at three probe intervals, then Policy 3 alone.
	for _, probe := range []float64{1, 10, 120} {
		bc := fdw.DefaultBurstConfig()
		bc.P1 = &fdw.BurstPolicy1{ProbeSecs: probe, ThresholdJPM: 34}
		bc.P2 = &fdw.BurstPolicy2{MaxQueueSecs: 90 * 60}
		res, err := fdw.Burst(batch, jobs, bc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("P1 probe %3.0fs + P2: AIT %6.2f JPM, VDC active %5.1f%%, bursted %4.1f%%, %.2f h, $%.2f\n",
			probe, res.AvgInstantJPM, res.VDCActivePct, res.BurstedPct, res.RuntimeSecs/3600, res.CostUSD)
	}
	bc := fdw.DefaultBurstConfig()
	bc.P3 = &fdw.BurstPolicy3{MaxGapSecs: 30 * 60, ProbeSecs: 60}
	res, err := fdw.Burst(batch, jobs, bc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P3 gap 30 min:       AIT %6.2f JPM, bursted %4.1f%%, $%.2f\n",
		res.AvgInstantJPM, res.BurstedPct, res.CostUSD)
	// Output:
	// batch burst-demo (control)
	//   runtime            3.19 h
	//   avg instant tput   1.47 JPM (sd 1.24, min 0.00, max 6.51)
	//   total throughput   2.95 JPM
	//   jobs               564 total, 564 OSG, 0 VDC (0.0% bursted)
	//   VDC usage          0.0% of completions, active 0.0% of runtime, 0.0 compute minutes
	//   simulated cost     $0.00
	// P1 probe   1s + P2: AIT   4.90 JPM, VDC active   2.7%, bursted 30.0%, 3.15 h, $0.69
	// P1 probe  10s + P2: AIT   3.71 JPM, VDC active  16.1%, bursted 30.0%, 3.15 h, $0.69
	// P1 probe 120s + P2: AIT   1.88 JPM, VDC active  70.2%, bursted 11.9%, 3.19 h, $0.27
	// P3 gap 30 min:       AIT   1.91 JPM, bursted 18.6%, $0.43
}

// ExampleNewCatalogServer is the Fig. 7 pipeline over the VDC portal's
// HTTP API with plain net/http: deposit data products, curate them with
// tags, discover them by search, retrieve them, and read the
// popularity-based prefetch hints.
func ExampleNewCatalogServer() {
	portal := httptest.NewServer(fdw.NewCatalogServer(fdw.NewCatalog()))
	defer portal.Close()

	// do sends one request and decodes the JSON reply into out.
	do := func(method, path, body string, out any) {
		req, err := http.NewRequest(method, portal.URL+path, strings.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			msg, _ := io.ReadAll(resp.Body)
			log.Fatalf("%s %s: %s %s", method, path, resp.Status, msg)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}

	var ids []string
	for i, mw := range []float64{7.9, 8.4, 9.0} {
		p, err := json.Marshal(fdw.Product{
			Name: fmt.Sprintf("chile-%d waveforms", i+1), Type: "waveform",
			Batch: fmt.Sprintf("chile-%d", i+1), Region: "chile", Mw: mw,
			SizeBytes: 3 << 20, Description: "synthetic high-rate GNSS displacement",
		})
		if err != nil {
			log.Fatal(err)
		}
		var created struct{ ID string }
		do("POST", "/products", string(p), &created)
		var tagged struct{ Status string }
		do("POST", "/products/"+created.ID+"/tags", `["eew","training"]`, &tagged)
		fmt.Printf("deposited %s (Mw %.1f), %s\n", created.ID, mw, tagged.Status)
		ids = append(ids, created.ID)
	}

	// An EEW researcher looks for large-event training data.
	var found []fdw.Product
	do("GET", "/products?type=waveform&tag=training&min_mw=8", "", &found)
	fmt.Println("search type=waveform tag=training min_mw=8:")
	for _, p := range found {
		fmt.Printf("  %s %s Mw %.1f %d KB\n", p.ID, p.Name, p.Mw, p.SizeBytes>>10)
	}

	// Retrievals count accesses, which order the prefetch hints.
	var got fdw.Product
	for _, id := range []string{ids[2], ids[2], ids[2], ids[0]} {
		do("GET", "/products/"+id, "", &got)
	}
	var hot []fdw.Product
	do("GET", "/popular?n=2", "", &hot)
	fmt.Println("prefetch hints:")
	for _, p := range hot {
		fmt.Printf("  %s %s, %d retrievals\n", p.ID, p.Name, p.Accesses)
	}
	// Output:
	// deposited vdc-000001 (Mw 7.9), tagged
	// deposited vdc-000002 (Mw 8.4), tagged
	// deposited vdc-000003 (Mw 9.0), tagged
	// search type=waveform tag=training min_mw=8:
	//   vdc-000002 chile-2 waveforms Mw 8.4 3072 KB
	//   vdc-000003 chile-3 waveforms Mw 9.0 3072 KB
	// prefetch hints:
	//   vdc-000003 chile-3 waveforms, 3 retrievals
	//   vdc-000001 chile-1 waveforms, 1 retrievals
}

// ExampleGenerateScenario runs the FakeQuakes numeric kernels end to
// end, a stochastic rupture and its GNSS waveforms (a Fig. 1-style
// data product), and lists each station's peak ground displacement.
func ExampleGenerateScenario() {
	sc, err := fdw.GenerateScenario(7, 8.4, 4)
	if err != nil {
		log.Fatal(err)
	}
	r := sc.Rupture
	fmt.Printf("scenario %s: Mw %.2f, %d subfaults, max slip %.1f m, %.0f s rupture\n",
		r.ID, r.ActualMw, len(r.Patch), r.MaxSlip(), r.Duration())
	for _, w := range sc.Waveforms {
		fmt.Printf("  %-5s PGD %.2f m\n", w.Station, w.PGD())
	}
	// Output:
	// scenario run000001: Mw 8.40, 65 subfaults, max slip 30.8 m, 82 s rupture
	//   ANTC  PGD 0.09 m
	//   CONZ  PGD 0.11 m
	//   CNBA  PGD 0.63 m
	//   VALP  PGD 3.13 m
}
