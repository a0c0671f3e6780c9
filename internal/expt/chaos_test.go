package expt

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fdw/internal/faults"
	"fdw/internal/obs"
)

// chaosOptions shrinks the sweep for test speed. Scale 0.002 floors the
// waveform count at 16 stations — small, but enough work for every
// fault window to bite.
func chaosOptions() Options {
	opt := DefaultOptions()
	opt.Seeds = []uint64{11}
	opt.Scale = 0.002
	return opt
}

func runChaos(t *testing.T, workers int) ([]ChaosRow, string) {
	t.Helper()
	opt := chaosOptions()
	opt.Workers = workers
	var out bytes.Buffer
	opt.Out = &out
	return runRows[[]ChaosRow](t, "chaos", opt), out.String()
}

// TestChaosSweepShort is the CI chaos entry point: the full standard
// plan grid × recovery {off,on} at small scale, with the sweep's own
// invariants (termination and job conservation) enforced inside the
// campaign, plus cross-worker byte-identity checked here.
func TestChaosSweepShort(t *testing.T) {
	rows1, out1 := runChaos(t, 1)
	rows4, out4 := runChaos(t, 4)

	if want := len(faults.StandardPlans()) * len(chaosOptions().Seeds) * 2; len(rows1) != want {
		t.Fatalf("%d rows, want %d", len(rows1), want)
	}
	if !reflect.DeepEqual(rows1, rows4) {
		t.Fatalf("rows differ across workers:\n%v\n%v", rows1, rows4)
	}
	if out1 != out4 {
		t.Fatalf("-j 1 and -j 4 chaos reports differ:\n--- j1 ---\n%s\n--- j4 ---\n%s", out1, out4)
	}

	type arm struct {
		plan     string
		recovery bool
	}
	byArm := map[arm]ChaosRow{}
	for _, r := range rows1 {
		byArm[arm{r.Plan, r.Recovery}] = r
	}
	for _, rec := range []bool{false, true} {
		base := byArm[arm{"baseline", rec}]
		if base.DAGFailed || base.FailedJobs != 0 {
			t.Fatalf("baseline plan (recovery %t) saw failures: %+v", rec, base)
		}
	}
	// The fault plans must actually bite: across the grid some jobs
	// fail and some DAGMan retry budget is spent.
	var failed, retries int
	for _, r := range rows1 {
		failed += r.FailedJobs
		retries += r.NodeRetries
	}
	if failed == 0 {
		t.Fatal("no plan injected a job failure")
	}
	if retries == 0 {
		t.Fatal("no plan consumed DAGMan retry budget")
	}
}

// TestChaosRecoveryImprovesOrTies is the recovery A/B acceptance
// criterion: with the default policy on, makespan and wasted CPU are no
// worse than recovery-off on at least 5 of the 7 standard plans, and
// recovery measurably reduces wasted CPU somewhere in the grid.
func TestChaosRecoveryImprovesOrTies(t *testing.T) {
	rows, _ := runChaos(t, 4)
	improved, total := ChaosImprovedOrTied(rows)
	if total != len(faults.StandardPlans()) {
		t.Fatalf("delta tally covered %d plans, want %d", total, len(faults.StandardPlans()))
	}
	if improved < 5 {
		t.Fatalf("recovery improved-or-tied on %d/%d plans, want >= 5:\n%+v", improved, total, rows)
	}
	var strictly bool
	for _, r := range rows {
		if !r.Recovery {
			continue
		}
		for _, o := range rows {
			if !o.Recovery && o.Plan == r.Plan && o.Seed == r.Seed && r.WastedCPUH < o.WastedCPUH {
				strictly = true
			}
		}
	}
	if !strictly {
		t.Fatal("recovery never strictly reduced wasted CPU on any plan")
	}
}

func TestChaosCountsInjectedFaults(t *testing.T) {
	opt := chaosOptions()
	opt.Obs = obs.NewRegistry(nil)
	var out bytes.Buffer
	opt.Out = &out
	if _, err := Run("chaos", opt); err != nil {
		t.Fatal(err)
	}
	var injected uint64
	for _, c := range opt.Obs.Snapshot().Counters {
		if c.Name == "fdw_faults_injected_total" {
			injected += c.Value
		}
	}
	if injected == 0 {
		t.Fatal("no faults counted by the injector")
	}
}

func TestChaosCSV(t *testing.T) {
	rows := []ChaosRow{{
		Plan: "baseline", Seed: 11, Recovery: true, DAGDone: true,
		Submitted: 10, CompletedOK: 10, RuntimeH: 1.5,
	}}
	var buf bytes.Buffer
	if err := writeChaosCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "plan,seed,recovery,dag_done") || !strings.Contains(got, "baseline,11,true,true") {
		t.Fatalf("csv:\n%s", got)
	}
}
