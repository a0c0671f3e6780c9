package htcondor

import (
	"testing"

	"fdw/internal/sim"
)

// The recovery layer finalizes jobs through three narrow entry points:
// AdoptResult (graft a hedge winner's result onto the original),
// AbortRunning (condor_rm of a running job whose claim was already torn
// down), and Remove extended to staged jobs (a hedge clone cancelled
// before it was ever released into the queue).

func TestAdoptResultIdle(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	var terminated int
	s.Subscribe(func(_ *Job, ev EventType) {
		if ev == EventTerminated {
			terminated++
		}
	})
	k.At(10, func() {
		if err := s.AdoptResult(j, 0); err != nil {
			t.Error(err)
		}
	})
	for k.Step() {
	}
	if j.Status != Completed || j.ExitCode != 0 || j.EndTime != 10 {
		t.Fatalf("status %v exit %d end %v", j.Status, j.ExitCode, j.EndTime)
	}
	if s.QueueDepth() != 0 || s.Completed() != 1 || !s.Done() {
		t.Fatalf("queue %d completed %d done %v", s.QueueDepth(), s.Completed(), s.Done())
	}
	if terminated != 1 {
		t.Fatalf("listener saw %d terminations, want 1 (adoption must look like a normal finish)", terminated)
	}
}

func TestAdoptResultStaged(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	s.MaxIdleSubmit = 1
	jobs := []*Job{{Owner: "u"}, {Owner: "u"}}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if s.StagedCount() != 1 {
		t.Fatalf("staged %d, want 1", s.StagedCount())
	}
	if err := s.AdoptResult(jobs[1], 0); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Status != Completed || s.StagedCount() != 0 {
		t.Fatalf("status %v staged %d", jobs[1].Status, s.StagedCount())
	}
}

func TestAdoptResultRunning(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(j, "h"); err != nil {
		t.Fatal(err)
	}
	// The pool's CancelClaim has (by contract) already freed the slot.
	if err := s.AdoptResult(j, 0); err != nil {
		t.Fatal(err)
	}
	if j.Status != Completed || s.Completed() != 1 || !s.Done() {
		t.Fatalf("status %v completed %d done %v", j.Status, s.Completed(), s.Done())
	}
}

func TestAdoptResultInvalidStates(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(j); err != nil {
		t.Fatal(err)
	}
	if err := s.AdoptResult(j, 0); err == nil {
		t.Fatal("adopted a removed job")
	}
	stranger := &Job{Owner: "u", Status: Idle}
	if err := s.AdoptResult(stranger, 0); err == nil {
		t.Fatal("adopted a job the schedd never saw")
	}
}

func TestAbortRunning(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.AbortRunning(j); err == nil {
		t.Fatal("aborted an idle job")
	}
	if err := s.MarkRunning(j, "h"); err != nil {
		t.Fatal(err)
	}
	var aborted int
	s.Subscribe(func(_ *Job, ev EventType) {
		if ev == EventAborted {
			aborted++
		}
	})
	if err := s.AbortRunning(j); err != nil {
		t.Fatal(err)
	}
	if j.Status != Removed || s.RunningCount() != 0 || !s.Done() {
		t.Fatalf("status %v running %d done %v", j.Status, s.RunningCount(), s.Done())
	}
	if aborted != 1 {
		t.Fatalf("listener saw %d aborts, want 1", aborted)
	}
	if err := s.AbortRunning(j); err == nil {
		t.Fatal("double abort accepted")
	}
}

func TestRemoveStagedJob(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	s.MaxIdleSubmit = 1
	jobs := []*Job{{Owner: "u"}, {Owner: "u"}}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(jobs[1]); err != nil {
		t.Fatal(err)
	}
	if jobs[1].Status != Removed || s.StagedCount() != 0 {
		t.Fatalf("status %v staged %d", jobs[1].Status, s.StagedCount())
	}
	// The other job is still queued; finishing it drains the schedd.
	if err := s.MarkRunning(jobs[0], "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkCompleted(jobs[0], 0); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("schedd not done after staged removal + completion")
	}
}
