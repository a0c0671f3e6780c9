package recovery

import (
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// hedgePoolConfig is a pool with one pathologically slow single-slot
// site next to a fast one: whichever sibling lands on the slow slot
// becomes a clear straggler.
func hedgePoolConfig() ospool.Config {
	cfg := ospool.DefaultConfig()
	cfg.Sites = []ospool.SiteConfig{
		{Name: "fast", MaxSlots: 8, Speed: 1, CpusPer: 4, MemoryMB: 16384},
		{Name: "slow", MaxSlots: 1, Speed: 12, CpusPer: 4, MemoryMB: 16384},
	}
	cfg.GlideinRampMean = 60
	cfg.GlideinLifetimeMean = 48 * 3600 // no preemptions: isolate hedging
	cfg.ExecJitterSigma = 0.05
	return cfg
}

// TestHedgeRescuesStraggler is the end-to-end hedging path: a sibling
// stuck on a 12× slow slot gets a speculative clone once enough
// siblings finish; the clone wins on a fast slot and its result is
// grafted onto the original, well before the slow attempt would have
// ended. The losing slow attempt's claim is cancelled.
func TestHedgeRescuesStraggler(t *testing.T) {
	k := sim.NewKernel(9)
	p, err := ospool.New(k, hedgePoolConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := htcondor.NewSchedd("s", k, nil)
	p.AddSchedd(s)
	r := New(k)
	r.Attach(p, s)

	jobs := make([]*htcondor.Job, 9)
	for i := range jobs {
		jobs[i] = &htcondor.Job{Owner: "u", RequestCpus: 4, RequestMemoryMB: 8192, BaseExecSeconds: 300}
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	p.Start()
	if err := p.RunUntilDone(48 * 3600); err != nil {
		t.Fatal(err)
	}

	// Every original completed cleanly; hedging resolved every clone it
	// submitted (win or loss), leaving nothing stuck in the queue.
	for _, j := range jobs {
		if j.Status != htcondor.Completed || j.ExitCode != 0 {
			t.Fatalf("original %s status %v exit %d", j.ID(), j.Status, j.ExitCode)
		}
	}
	st := r.Stats()
	if st.HedgesSubmitted == 0 {
		t.Fatalf("no hedge submitted despite a 12x straggler: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("hedge never won against a 12x slow slot: %+v", st)
	}
	if st.HedgeWins+st.HedgeLosses != st.HedgesSubmitted {
		t.Fatalf("unresolved hedges: %+v", st)
	}
	// Job conservation across originals + clones.
	var completed, removed int
	for _, j := range s.AllJobs() {
		switch j.Status {
		case htcondor.Completed:
			completed++
		case htcondor.Removed:
			removed++
		default:
			t.Fatalf("job %s left in state %v", j.ID(), j.Status)
		}
	}
	if len(s.AllJobs()) != len(jobs)+st.HedgesSubmitted-st.HedgeSubmitErrors {
		t.Fatalf("schedd saw %d jobs, want %d originals + %d clones",
			len(s.AllJobs()), len(jobs), st.HedgesSubmitted)
	}
	if completed+removed != len(s.AllJobs()) {
		t.Fatalf("conservation: %d completed + %d removed != %d jobs", completed, removed, len(s.AllJobs()))
	}
	// The rescue must beat the slow attempt's ~3600 s runtime by a wide
	// margin: all originals done well before the un-hedged makespan.
	var latest sim.Time
	for _, j := range jobs {
		if j.EndTime > latest {
			latest = j.EndTime
		}
	}
	if latest >= 3600 {
		t.Fatalf("originals finished at %v, want < 3600 (hedge should beat the slow attempt)", latest)
	}
}
