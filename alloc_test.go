package fdw_test

import (
	"testing"

	"fdw"
)

// workflowAllocs is what one 1,600-waveform DAGMan allocates, start to
// finish (go1.24, linux/amd64; the race detector adds a few). Per job
// that is the Job itself, its arguments string and the pool's events
// and claim closures; a per-job fmt.Sprintf or signature string would
// add another 1,600 or more.
const workflowAllocs = 7930

// TestWorkflowAllocs guards the allocation-lean pool path (DESIGN.md
// §12): a 1,600-waveform DAGMan may allocate at most 10 % more than
// workflowAllocs. The count is deterministic for a fixed seed.
func TestWorkflowAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() {
		env, err := fdw.NewEnv(31, fdw.DefaultPoolConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := fdw.DefaultConfig()
		cfg.Name = "alloc1600"
		cfg.Waveforms = 1600
		cfg.Seed = 31
		w, err := fdw.NewWorkflow(cfg, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := fdw.RunBatch(env, []*fdw.Workflow{w}, 1000*3600); err != nil {
			t.Fatal(err)
		}
	})
	if limit := workflowAllocs * 1.10; allocs > limit {
		t.Errorf("1,600-waveform DAGMan: %.0f allocations, want at most %.0f (%d measured + 10 %%)", allocs, limit, workflowAllocs)
	}
}
