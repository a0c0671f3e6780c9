package fdw_test

import (
	"fmt"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// TestPoolScaleSmoke drains a 10⁵-job workload through a ~46k-slot pool
// in the required check (skipped under -short): the CI-enforced floor
// that pool-scale throughput never regresses back to minutes. The same
// configuration is timed in BenchmarkPool/cold/100000; here we only
// assert it completes and the books balance.
func TestPoolScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("pool scale smoke skipped in -short mode")
	}
	const jobs = 100_000
	cfg := benchPoolConfig(100)
	k := sim.NewKernel(7)
	p, err := ospool.New(k, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	schedds := make([]*htcondor.Schedd, 4)
	for si := range schedds {
		schedds[si] = htcondor.NewSchedd(fmt.Sprintf("s%d", si), k, nil)
		p.AddSchedd(schedds[si])
	}
	p.Start()
	for si, batch := range benchPoolJobs(jobs, cfg.Sites[0].Name) {
		if _, err := schedds[si].Submit(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.RunUntilDone(sim.Forever); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, s := range schedds {
		completed += s.Completed()
	}
	if completed != jobs {
		t.Fatalf("completed %d of %d jobs", completed, jobs)
	}
	started, done, _ := p.Stats()
	if done != jobs {
		t.Fatalf("pool completions %d, want %d", done, jobs)
	}
	if started < jobs {
		t.Fatalf("pool started %d attempts for %d jobs", started, jobs)
	}
}
