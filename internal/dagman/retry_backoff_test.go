package dagman

import (
	"reflect"
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

// backoffHarness runs a single Retry:2 node whose first two attempts
// fail, recording when each attempt's jobs were materialized.
func backoffHarness(t *testing.T, delay func(node string, attempt int) sim.Time) []sim.Time {
	t.Helper()
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "flaky", SubmitFile: "f.sub", Retry: 2}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submitTimes []sim.Time
	factory := func(n *Node) ([]*htcondor.Job, error) {
		submitTimes = append(submitTimes, k.Now())
		return []*htcondor.Job{{Owner: "dag"}}, nil
	}
	e, err := NewExecutor("dag", d, k, s, factory)
	if err != nil {
		t.Fatal(err)
	}
	e.RetryDelay = delay
	fails := 2
	autoRun(k, s, 1, 1, func(*htcondor.Job) int {
		if fails > 0 {
			fails--
			return 1
		}
		return 0
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() || e.Failed() {
		t.Fatalf("done=%v failed=%v", e.Done(), e.Failed())
	}
	return submitTimes
}

// TestRetryDelayHoldsResubmission: each failed attempt waits out the
// hook's delay before re-entering dispatch. Attempt 1 submits at t=0
// and fails at t=2 (wait 1 + exec 1); with delays 100 then 200 the
// resubmissions land at 102 and 304.
func TestRetryDelayHoldsResubmission(t *testing.T) {
	var attempts []int
	times := backoffHarness(t, func(node string, attempt int) sim.Time {
		if node != "flaky" {
			t.Errorf("delay consulted for node %q", node)
		}
		attempts = append(attempts, attempt)
		return sim.Time(100 * attempt)
	})
	if want := []sim.Time{0, 102, 304}; !reflect.DeepEqual(times, want) {
		t.Fatalf("submit times %v, want %v", times, want)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(attempts, want) {
		t.Fatalf("delay consulted with attempts %v, want %v", attempts, want)
	}
}

// TestRetryDelayZeroKeepsClassicRequeue: a hook returning 0 (and a nil
// hook) behave identically — the same-tick requeue of the pre-backoff
// executor.
func TestRetryDelayZeroKeepsClassicRequeue(t *testing.T) {
	withZero := backoffHarness(t, func(string, int) sim.Time { return 0 })
	withNil := backoffHarness(t, nil)
	if !reflect.DeepEqual(withZero, withNil) {
		t.Fatalf("zero-delay hook diverged from nil hook: %v vs %v", withZero, withNil)
	}
	if want := []sim.Time{0, 2, 4}; !reflect.DeepEqual(withNil, want) {
		t.Fatalf("classic requeue times %v, want %v", withNil, want)
	}
}

// TestRetryDelayHoldDoesNotStallSiblings: while one node waits out its
// backoff, an independent ready node still dispatches.
func TestRetryDelayHoldDoesNotStallSiblings(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "flaky", SubmitFile: "f.sub", Retry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "solid", SubmitFile: "s.sub"}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	nodeTimes := map[string][]sim.Time{}
	factory := func(n *Node) ([]*htcondor.Job, error) {
		nodeTimes[n.Name] = append(nodeTimes[n.Name], k.Now())
		return []*htcondor.Job{{Owner: "dag", Executable: n.Name}}, nil
	}
	e, err := NewExecutor("dag", d, k, s, factory)
	if err != nil {
		t.Fatal(err)
	}
	e.RetryDelay = func(string, int) sim.Time { return 500 }
	flakyFails := 1
	autoRun(k, s, 1, 1, func(j *htcondor.Job) int {
		if strings.HasPrefix(j.Executable, "flaky") && flakyFails > 0 {
			flakyFails--
			return 1
		}
		return 0
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() || e.Failed() {
		t.Fatalf("done=%v failed=%v", e.Done(), e.Failed())
	}
	if got := nodeTimes["solid"]; len(got) != 1 || got[0] != 0 {
		t.Fatalf("solid node dispatched at %v, want [0] (must not wait for flaky's backoff)", got)
	}
	if got := nodeTimes["flaky"]; len(got) != 2 || got[1] != 502 {
		t.Fatalf("flaky resubmission times %v, want second at 502", got)
	}
}
