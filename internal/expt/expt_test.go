package expt

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"fdw/internal/core"
)

// runRows runs the named experiment and returns its rows as T.
func runRows[T any](t *testing.T, name string, opt Options) T {
	t.Helper()
	res, err := Run(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows.(T)
}

// quickOptions shrinks everything for test speed: one seed, 2% scale.
func quickOptions() Options {
	opt := DefaultOptions()
	opt.Seeds = []uint64{7}
	opt.Scale = 0.02
	return opt
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.Seeds = nil },
		func(o *Options) { o.Scale = 0 },
		func(o *Options) { o.Scale = 1.5 },
		func(o *Options) { o.Horizon = 0 },
		func(o *Options) { o.Pool.MatchesPerCycle = 0 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Fatalf("bad options %d accepted", i)
		}
	}
}

func TestScaleN(t *testing.T) {
	o := DefaultOptions()
	o.Scale = 0.5
	if got := o.scaleN(1024); got != 512 {
		t.Fatalf("scaleN = %d", got)
	}
	o.Scale = 0.001
	if got := o.scaleN(1024); got != 16 {
		t.Fatalf("scale floor = %d, want 16", got)
	}
}

func TestFig2ShapeAtSmallScale(t *testing.T) {
	opt := quickOptions()
	var out bytes.Buffer
	opt.Out = &out
	rows := runRows[[]Fig2Row](t, "fig2", opt)
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	// Shape: small-input throughput exceeds full-input at every quantity.
	for i := 0; i < 6; i++ {
		small, full := rows[i], rows[i+6]
		if small.Stations != 2 || full.Stations != 121 {
			t.Fatalf("row layout wrong: %+v %+v", small, full)
		}
		if small.ThroughputJPM <= full.ThroughputJPM {
			t.Fatalf("q=%d: small input %.2f JPM <= full %.2f", small.Waveforms,
				small.ThroughputJPM, full.ThroughputJPM)
		}
		if small.RuntimeH >= full.RuntimeH {
			t.Fatalf("q=%d: small input slower than full", small.Waveforms)
		}
	}
	// Shape: throughput grows with quantity for the small input.
	if rows[5].ThroughputJPM <= rows[0].ThroughputJPM {
		t.Fatalf("small-input throughput did not grow: %.2f → %.2f",
			rows[0].ThroughputJPM, rows[5].ThroughputJPM)
	}
	if !strings.Contains(out.String(), "Fig. 2") {
		t.Fatal("no printed output")
	}
}

func TestFig3ShapeAtSmallScale(t *testing.T) {
	opt := quickOptions()
	opt.Scale = 0.04
	rows := runRows[[]Fig3Row](t, "fig3", opt)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Per-DAGMan throughput decreases as concurrency increases.
	for i := 1; i < len(rows); i++ {
		if rows[i].ThroughputJPM >= rows[i-1].ThroughputJPM {
			t.Fatalf("per-DAG throughput did not fall: n=%d %.2f vs n=%d %.2f",
				rows[i].DAGMans, rows[i].ThroughputJPM, rows[i-1].DAGMans, rows[i-1].ThroughputJPM)
		}
	}
	// Runtime does not shrink proportionally: at n=8 each DAG has 1/8 the
	// work but takes well over 1/8 the single-DAG runtime.
	if rows[3].RuntimeH < rows[0].RuntimeH/4 {
		t.Fatalf("partitioning helped too much: n=1 %.2fh, n=8 %.2fh",
			rows[0].RuntimeH, rows[3].RuntimeH)
	}
}

func TestFig4CollectsDistributions(t *testing.T) {
	opt := quickOptions()
	opt.Scale = 0.03
	data := runRows[[]Fig4Data](t, "fig4", opt)
	if len(data) != 4 {
		t.Fatalf("%d levels", len(data))
	}
	d1 := data[0]
	if d1.WaveformExecMin.N == 0 || d1.RuptureExecMin.N == 0 {
		t.Fatal("no job distributions collected")
	}
	if d1.PeakRunning <= 0 || d1.PeakInstantJPM <= 0 {
		t.Fatalf("peaks %d / %v", d1.PeakRunning, d1.PeakInstantJPM)
	}
	if len(d1.InstantJPM) == 0 || len(d1.RunningJobs) == 0 {
		t.Fatal("per-second series empty")
	}
	// Sorted series really are sorted.
	for i := 1; i < len(d1.ExecSortedMin); i++ {
		if d1.ExecSortedMin[i] < d1.ExecSortedMin[i-1] {
			t.Fatal("exec series not sorted")
		}
	}
	// §5.2.3 shape: waits grow with concurrency (n=4 vs n=1).
	if data[2].WaveformWaitMin.Mean <= data[0].WaveformWaitMin.Mean {
		t.Logf("warning: n=4 wait %.1f <= n=1 wait %.1f (may happen at tiny scale)",
			data[2].WaveformWaitMin.Mean, data[0].WaveformWaitMin.Mean)
	}
}

// TestFig4BytesPinned holds the SHA-256 of the Fig. 4 report and of each
// per-second series CSV. The per-second series are built from the event
// times the schedd records, which are fractional seconds; any route that
// rounds them — for example re-parsing the user-log text, which prints
// whole seconds — moves the series and fails here.
func TestFig4BytesPinned(t *testing.T) {
	opt := DefaultOptions()
	opt.Seeds = []uint64{11}
	opt.Scale = 0.01
	var report bytes.Buffer
	opt.Out = &report
	res, err := Run("fig4", opt)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"report": fmt.Sprintf("%x", sha256.Sum256(report.Bytes()))}
	for _, c := range res.CSVs {
		var csv bytes.Buffer
		if err := c.Write(&csv); err != nil {
			t.Fatal(err)
		}
		got[c.Name] = fmt.Sprintf("%x", sha256.Sum256(csv.Bytes()))
	}
	want := map[string]string{
		"report":      "388ab96730605914819b1993657c00ac49cfe4caba220be170122a99536a8c96",
		"fig4_n1.csv": "5bad4862974215bdb0d425f4875e3e83639cd3e0e1b3bbe0bca30e81c41bf65e",
		"fig4_n2.csv": "9751f30b0fa1e6109199c2929bd8f9dadaf9dfc5be8f68084a2dfd95eb979113",
		"fig4_n4.csv": "a890d3dc3bbefb13545f6a899093053685264edd7b60e494a4a3741bbd2963eb",
		"fig4_n8.csv": "83f1acf46ec9595127a82aa76e8dc02939123919a1617164b182cc62527b2df7",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d artifacts, want %d", len(got), len(want))
	}
}

// TestReportsBytesPinned holds the SHA-256 of every other report and
// CSV that `fdwexp -seeds 2 all` and `fdwexp -seeds 2 chaos` write (Fig. 1
// prints no report; TestFig4BytesPinned has Fig. 4), at the small scale
// of the determinism checks. A refactor that moves one byte fails here.
func TestReportsBytesPinned(t *testing.T) {
	opt := DefaultOptions()
	opt.Seeds = []uint64{11, 24} // fdwexp -seeds 2
	opt.Scale = 0.03
	got := map[string]string{}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	// Each experiment's report is pinned under its key here, and each
	// CSV it declares under the CSV's file name.
	for key, name := range map[string]string{
		"fig2": "fig2", "fig3": "fig3", "fig5": "fig5", "fig6": "fig6", "chaos": "chaos",
		"headline":           "headline",
		"ablation-recycling": "ablate-recycling",
		"ablation-stash":     "ablate-stash",
		"ablation-fanout":    "ablate-fanout",
		"ablation-churn":     "ablate-churn",
		"policy3":            "policy3",
		"elastic":            "elastic",
	} {
		var report bytes.Buffer
		o := opt
		o.Out = &report
		res, err := Run(name, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[key] = sum(report.Bytes())
		for _, c := range res.CSVs {
			var csv bytes.Buffer
			if err := c.Write(&csv); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got[c.Name] = sum(csv.Bytes())
		}
	}
	want := map[string]string{
		"ablation-churn":     "eb76d4715a5048a4c31d597a40cc323a11f2df443fa955c5b5d25802b6b67ec6",
		"ablation-fanout":    "673c93cb5a4095263643b1489baa49bdcaeb3764cc4dd9a41fe8747f7484202d",
		"ablation-recycling": "aaaf2456d80b90fe9520957ba8fbadac2b79ad6fec5af31a8295322d530dd33b",
		"ablation-stash":     "4b72811073bed2f6bb46cc743bd9176a1c0c8855b128115c7555c72cd193f48f",
		"chaos":              "080eca6bfe93b97bc19ddd9b241594044a4bbf23fa09529aa1dfcf0b3adb0a70",
		"chaos.csv":          "0d747ecb9dc4c7dbe7df8d24a20fd89b7137304a81dfd6a9acb31208ed0e9ac3",
		"elastic":            "f47c28467ff7524ccc6d58a47b2bf9a9cd9d8399e674dfee894d2d7113645479",
		"fig2":               "0fce19608bd7c45e4f7d8ba1b46fa3488c18611eaedbe4b7030d8e3cfb26b96c",
		"fig2.csv":           "a63f5c8563a4a7074ebceddf116960631c04472b122113b6a528b30450e682fe",
		"fig3":               "f1751e451f11898360dbb26c5891346858b3f750c9f24554fd92c58594119d22",
		"fig3.csv":           "4ef77816e693c6057d9921db088b6e8722f7ab26e1b10892f24e1f0cb570fa8a",
		"fig5":               "aeca9f6b3e5a83e9c537ca6e9f0266d7404f090de1642d347a47e4162283fe2e",
		"fig5.csv":           "bfc1f4e4efb43e0415c7fa7188b08313900c4b14c85bdb810c978adc3bf2c3bc",
		"fig6":               "1afb04b62eae871ed512bd8be6903b019276e80412ecef239a566e9f9950a3f6",
		"fig6.csv":           "64da029dc768c8d645b579e4b34b304d164c9efda6997d28a8bc2112c627b7bb",
		"headline":           "efa2c24932c436ed224029e9a2b89e62e19e63e7aa8b972eb4041455a9486596",
		"policy3":            "10e324463f20410d817de2e17cfa6bb89a480b1f81bb8263ef14802d240202b2",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d artifacts, want %d", len(got), len(want))
	}
}

func TestFig5SweepShape(t *testing.T) {
	opt := quickOptions()
	opt.Scale = 0.03
	cells := runRows[[]Fig5Cell](t, "fig5", opt)
	// 2 batches × (1 control + 14 combinations).
	if len(cells) != 2*(1+len(Fig5ProbeTimes)*len(Fig5QueueTimesMin)) {
		t.Fatalf("%d cells", len(cells))
	}
	byBatch := map[string][]Fig5Cell{}
	for _, c := range cells {
		byBatch[c.Batch] = append(byBatch[c.Batch], c)
	}
	for name, cs := range byBatch {
		control := cs[0]
		if !control.Control {
			t.Fatalf("%s: first cell is not the control", name)
		}
		if control.CostUSD != 0 || control.BurstedPct != 0 {
			t.Fatalf("%s: control has bursting side effects", name)
		}
		for _, c := range cs[1:] {
			if c.Control {
				t.Fatal("duplicate control")
			}
			// Bursting never hurts AIT; the Fig. 5 sweep is uncapped.
			if c.AvgJPM < control.AvgJPM-1e-9 {
				t.Fatalf("%s probe %v: AIT %.2f below control %.2f", name, c.ProbeSecs, c.AvgJPM, control.AvgJPM)
			}
			if c.BurstedPct > 100 {
				t.Fatalf("%s probe %v: bursted %.1f%%", name, c.ProbeSecs, c.BurstedPct)
			}
			if c.RuntimeH > control.RuntimeH+1e-9 {
				t.Fatalf("%s probe %v: bursting extended runtime", name, c.ProbeSecs)
			}
		}
		// Shape: the fastest probe bursts at least as much as the slowest.
		probe1 := cs[1]
		probe120 := cs[len(Fig5ProbeTimes)]
		if probe1.ProbeSecs != 1 || probe120.ProbeSecs != 120 {
			t.Fatalf("cell ordering unexpected: %v %v", probe1.ProbeSecs, probe120.ProbeSecs)
		}
		if probe1.BurstedPct < probe120.BurstedPct {
			t.Fatalf("%s: probe 1s bursted %.1f%% < probe 120s %.1f%%", name, probe1.BurstedPct, probe120.BurstedPct)
		}
	}
}

func TestFig5UsageShape(t *testing.T) {
	// §5.3.2: faster probing yields higher VDC usage.
	opt := quickOptions()
	opt.Scale = 0.03
	cells := runRows[[]Fig5Cell](t, "fig5", opt)
	for name, cs := range groupCells(cells) {
		probe1 := cs[1]
		probe120 := cs[len(Fig5ProbeTimes)]
		if probe1.VDCPct < probe120.VDCPct {
			t.Fatalf("%s: probe 1s usage %.1f%% < probe 120s %.1f%%", name, probe1.VDCPct, probe120.VDCPct)
		}
	}
}

func TestFig6CapAndCost(t *testing.T) {
	// §5.3.4: with the 30% cap, bursting stays within the cap and cost
	// stays dollars-scale.
	opt := quickOptions()
	opt.Scale = 0.03
	cells := runRows[[]Fig5Cell](t, "fig6", opt)
	for _, c := range cells {
		if c.BurstedPct > 30.01 {
			t.Fatalf("%s probe %v: bursted %.1f%% despite 30%% cap", c.Batch, c.ProbeSecs, c.BurstedPct)
		}
		if c.CostUSD < 0 || c.CostUSD > 50 {
			t.Fatalf("%s probe %v: implausible cost $%.2f", c.Batch, c.ProbeSecs, c.CostUSD)
		}
	}
}

func groupCells(cells []Fig5Cell) map[string][]Fig5Cell {
	byBatch := map[string][]Fig5Cell{}
	for _, c := range cells {
		byBatch[c.Batch] = append(byBatch[c.Batch], c)
	}
	return byBatch
}

func TestHeadlineShape(t *testing.T) {
	// The headline speedup needs realistic scale: below ~100 waveforms
	// the serial B-phase floor dominates FDW and the single machine
	// legitimately wins, so run this one at half the paper's size.
	opt := quickOptions()
	opt.Scale = 0.5
	res := runRows[*HeadlineResult](t, "headline", opt)
	if res.FDWHours <= 0 || res.BaselineHours <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	// Shape: parallel FDW beats the single machine, and throughput grows
	// strongly with quantity.
	if res.DecreasePct <= 0 {
		t.Fatalf("FDW slower than single machine: %+v", res)
	}
	if res.ThroughputGain <= 1.5 {
		t.Fatalf("throughput gain %.2f, want > 1.5", res.ThroughputGain)
	}
}

func TestFig1Products(t *testing.T) {
	prod, err := Fig1(3, 8.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Rupture == nil || len(prod.Waveforms) != 3 {
		t.Fatalf("products %+v", prod)
	}
	if prod.Rupture.ActualMw < 8.0 || prod.Rupture.ActualMw > 8.4 {
		t.Fatalf("rupture Mw %v", prod.Rupture.ActualMw)
	}
	for _, w := range prod.Waveforms {
		if w.PGD() <= 0 {
			t.Fatalf("station %s PGD %v", w.Station, w.PGD())
		}
	}
	if _, err := Fig1(3, 8.2, 0); err == nil {
		t.Fatal("zero stations accepted")
	}
}

func TestMakeBatchTracesDistinct(t *testing.T) {
	opt := quickOptions()
	batches, jobs, err := makeBatchTraces(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 || len(jobs) != 2 {
		t.Fatalf("%d batches", len(batches))
	}
	if batches[0].Name == batches[1].Name {
		t.Fatal("batches share a name")
	}
	if batches[0].End-batches[0].Submit == batches[1].End-batches[1].Submit {
		t.Fatal("suspiciously identical batch durations for different seeds")
	}
	for i, js := range jobs {
		if len(js) == 0 {
			t.Fatalf("batch %d has no jobs", i)
		}
	}
}

func TestAblationRecycling(t *testing.T) {
	opt := quickOptions()
	rows := runRows[[]AblationRow](t, "ablate-recycling", opt)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Regenerating matrices costs an extra job and cannot be faster.
	if rows[1].Jobs != rows[0].Jobs+1 {
		t.Fatalf("jobs %d vs %d, want +1 matrix job", rows[1].Jobs, rows[0].Jobs)
	}
	if rows[1].RuntimeH < rows[0].RuntimeH {
		t.Fatalf("regenerating matrices was faster: %.2f vs %.2f", rows[1].RuntimeH, rows[0].RuntimeH)
	}
}

func TestAblationStash(t *testing.T) {
	opt := quickOptions()
	rows := runRows[[]AblationRow](t, "ablate-stash", opt)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// All-cold transfers must not beat the cache.
	if rows[1].RuntimeH < rows[0].RuntimeH {
		t.Fatalf("cacheless run faster: %.2f vs %.2f", rows[1].RuntimeH, rows[0].RuntimeH)
	}
}

func TestAblationFanout(t *testing.T) {
	opt := quickOptions()
	rows := runRows[[]AblationRow](t, "ablate-fanout", opt)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Finer fan-out means more jobs.
	for i := 1; i < len(rows); i++ {
		if rows[i].Jobs >= rows[i-1].Jobs {
			t.Fatalf("fan-out rows not decreasing in jobs: %+v", rows)
		}
	}
}

func TestPolicy3Sweep(t *testing.T) {
	opt := quickOptions()
	opt.Scale = 0.03
	rows := runRows[[]Policy3Row](t, "policy3", opt)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgJPM <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
}

func TestElasticComparison(t *testing.T) {
	opt := quickOptions()
	opt.Scale = 0.03
	rows := runRows[[]ElasticRow](t, "elastic", opt)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Per batch: elastic should match or beat Policy 1's AIT at the
	// same cadence (it can burst more per probe).
	for i := 0; i < len(rows); i += 2 {
		p1, el := rows[i], rows[i+1]
		if el.AvgJPM < p1.AvgJPM-1e-9 {
			t.Fatalf("%s: elastic AIT %.2f < policy-1 %.2f", p1.Batch, el.AvgJPM, p1.AvgJPM)
		}
	}
}

func TestCalibration16kRegression(t *testing.T) {
	// Full-scale calibration guard: one 16,000-waveform full-input
	// DAGMan must land in the neighborhood the paper reports
	// (§5.2: 14.1 h at 10.7 JPM). Wide bounds — this catches model
	// regressions, not noise.
	opt := DefaultOptions()
	opt.Seeds = []uint64{11}
	cfg := core.DefaultConfig()
	cfg.Waveforms = 16000
	cfg.Name = "calib16k"
	wf, _, err := runOne(opt, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	rt, jpm, jobs := wf.RuntimeHours(), wf.ThroughputJPM(), wf.Schedd.Completed()
	if jobs != 9001 {
		t.Fatalf("job count %d, want 9001", jobs)
	}
	if rt < 7 || rt > 16 {
		t.Fatalf("16k runtime %.2f h outside calibrated band [7, 16]", rt)
	}
	if jpm < 9 || jpm > 22 {
		t.Fatalf("16k throughput %.2f JPM outside calibrated band [9, 22]", jpm)
	}
	// §5.2.3 anchors: waveform exec 15–20 min scale on the reference slot.
	if s := core.WaveformJobSecs(121, 2); s < 900 || s > 1200 {
		t.Fatalf("waveform job model drifted: %v s", s)
	}
}

func TestAblationChurn(t *testing.T) {
	opt := quickOptions()
	rows := runRows[[]AblationRow](t, "ablate-churn", opt)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Churn never speeds the workflow up, and both runs complete fully.
	if rows[1].RuntimeH < rows[0].RuntimeH {
		t.Fatalf("churny pool faster: %.2f vs %.2f", rows[1].RuntimeH, rows[0].RuntimeH)
	}
	if rows[0].Jobs != rows[1].Jobs {
		t.Fatalf("job completion differs: %d vs %d", rows[0].Jobs, rows[1].Jobs)
	}
}

// The harness contract for fdwexp -j: any worker count produces
// byte-identical reports, because every simulation owns a private Env
// and results are collected by index before printing. The table is
// every experiment `fdwexp all` and `fdwexp chaos` run (Fig. 1 has no
// fan-out).
func TestHarnessOutputIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range []struct{ name, experiment string }{
		{"fig2", "fig2"}, {"fig3", "fig3"}, {"fig4", "fig4"}, {"fig5", "fig5"}, {"fig6", "fig6"},
		{"headline", "headline"},
		{"ablation-recycling", "ablate-recycling"},
		{"ablation-stash", "ablate-stash"},
		{"ablation-fanout", "ablate-fanout"},
		{"ablation-churn", "ablate-churn"},
		{"policy3", "policy3"}, {"elastic", "elastic"}, {"chaos", "chaos"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			render := func(workers int) string {
				opt := quickOptions()
				opt.Scale = 0.03
				opt.Seeds = []uint64{7, 19}
				opt.Workers = workers
				var out bytes.Buffer
				opt.Out = &out
				if _, err := Run(tc.experiment, opt); err != nil {
					t.Fatal(err)
				}
				if out.Len() == 0 {
					t.Fatal("empty report")
				}
				return out.String()
			}
			serial := render(1)
			if parallel := render(8); parallel != serial {
				t.Fatalf("-j 1 and -j 8 reports differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
			}
			if defaultWorkers := render(0); defaultWorkers != serial {
				t.Fatal("-j 0 (all cores) report differs from -j 1")
			}
		})
	}
}

// A cell that fails names its campaign and its cell. With a 10-minute
// horizon no batch finishes, so each experiment fails on its first
// cell (the lowest-index error wins at any worker count).
func TestCellErrorsNameCampaignAndCell(t *testing.T) {
	for _, tc := range []struct{ name, want string }{
		{"ablate-stash", "expt: ablate-stash cell cache: "},
		{"ablate-churn", "expt: ablate-churn cell 6h-pilots: "},
		{"headline", "expt: headline cell q1024/seed11: "},
		{"policy3", "expt: policy3 cell b1/gap5: expt: traces cell batch1: "},
		{"fig4", "expt: fig4 cell n1: "},
	} {
		opt := DefaultOptions()
		opt.Seeds = []uint64{11}
		opt.Scale = 0.01
		opt.Horizon = 600
		_, err := Run(tc.name, opt)
		if err == nil {
			t.Errorf("%q: no error under a 600 s horizon", tc.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), "not finished by horizon") {
			t.Errorf("error %q, want prefix %q and the horizon cause", err, tc.want)
		}
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	fig2 := []Fig2Row{{Stations: 2, Waveforms: 100, Jobs: 57, RuntimeH: 0.5, ThroughputJPM: 1.9}}
	if err := writeFig2CSV(&buf, fig2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "stations,waveforms,jobs") {
		t.Fatalf("fig2 header: %q", buf.String())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("fig2 CSV has %d lines", lines)
	}

	buf.Reset()
	fig3 := []Fig3Row{{DAGMans: 4, WaveformsEach: 4000, RuntimeH: 8.1, ThroughputJPM: 4.7, MakespanH: 8.8}}
	if err := writeFig3CSV(&buf, fig3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "4,4000") {
		t.Fatalf("fig3 CSV: %q", buf.String())
	}

	buf.Reset()
	fig4 := Fig4Data{
		DAGMans:     1,
		InstantJPM:  []core.SeriesPoint{{T: 0, V: 0}, {T: 1, V: 2}},
		RunningJobs: []core.SeriesPoint{{T: 0, V: 1}, {T: 1, V: 3}},
	}
	if err := writeFig4SeriesCSV(&buf, fig4); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("fig4 CSV has %d lines", lines)
	}

	buf.Reset()
	cells := []Fig5Cell{{Batch: "b1", Control: true, AvgJPM: 11.5}, {Batch: "b1", ProbeSecs: 1, MaxQueueM: 90, AvgJPM: 28.5}}
	if err := writeFig5CSV(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "b1,1,") || !strings.Contains(buf.String(), "b1,0,") {
		t.Fatalf("fig5 CSV control flags: %q", buf.String())
	}
}
