package htcondor

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"fdw/internal/classad"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

const sampleSubmit = `
# FDW phase C submit file
universe       = vanilla
executable     = run_waveforms.sh
arguments      = --proc $(Process) --cluster $(Cluster)
request_cpus   = 4
request_memory = 8GB
request_disk   = 16384
requirements   = (TARGET.HasSingularity == true)
+FDWPhase        = "C"
+FDWExecSeconds  = 1050
+FDWInputBytes   = 973000000
+FDWOutputBytes  = 52000000
queue 3
`

func TestParseSubmit(t *testing.T) {
	sf, err := ParseSubmit(strings.NewReader(sampleSubmit))
	if err != nil {
		t.Fatal(err)
	}
	if sf.QueueN != 3 {
		t.Fatalf("QueueN = %d, want 3", sf.QueueN)
	}
	if sf.Commands["executable"] != "run_waveforms.sh" {
		t.Fatalf("executable = %q", sf.Commands["executable"])
	}
	if sf.Plus["FDWPhase"] != `"C"` {
		t.Fatalf("+FDWPhase = %q", sf.Plus["FDWPhase"])
	}
}

func TestParseSubmitErrors(t *testing.T) {
	cases := map[string]string{
		"no queue":        "executable = x\n",
		"double queue":    "executable = x\nqueue\nqueue\n",
		"bad queue count": "executable = x\nqueue -2\n",
		"no equals":       "executable x\nqueue\n",
		"empty key":       " = x\nqueue\n",
		"dangling cont":   "executable = x \\\n",
	}
	for name, src := range cases {
		if _, err := ParseSubmit(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestParseSubmitBareQueueAndContinuation(t *testing.T) {
	src := "executable = a.sh\narguments = one \\\n two\nqueue\n"
	sf, err := ParseSubmit(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if sf.QueueN != 1 {
		t.Fatalf("QueueN = %d", sf.QueueN)
	}
	if !strings.Contains(sf.Commands["arguments"], "two") {
		t.Fatalf("continuation lost: %q", sf.Commands["arguments"])
	}
}

func TestMaterialize(t *testing.T) {
	sf, err := ParseSubmit(strings.NewReader(sampleSubmit))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sf.Materialize(42, "fdw-user")
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(jobs))
	}
	j := jobs[1]
	if j.Cluster != 42 || j.Proc != 1 {
		t.Fatalf("id %s", j.ID())
	}
	if j.Arguments != "--proc 1 --cluster 42" {
		t.Fatalf("macros not expanded: %q", j.Arguments)
	}
	if j.RequestCpus != 4 || j.RequestMemoryMB != 8192 || j.RequestDiskMB != 16384 {
		t.Fatalf("requests: cpus=%d mem=%d disk=%d", j.RequestCpus, j.RequestMemoryMB, j.RequestDiskMB)
	}
	if j.BaseExecSeconds != 1050 {
		t.Fatalf("BaseExecSeconds = %v", j.BaseExecSeconds)
	}
	if j.InputBytes != 973000000 || j.OutputBytes != 52000000 {
		t.Fatalf("transfer sizes: %d %d", j.InputBytes, j.OutputBytes)
	}
	if v, ok := j.Attrs.Lookup("FDWPhase"); !ok {
		t.Fatal("FDWPhase attr missing")
	} else if s, _ := v.AsString(); s != "C" {
		t.Fatalf("FDWPhase = %v", v)
	}
}

func TestParseSizeMB(t *testing.T) {
	cases := map[string]int{
		"2048": 2048, "2GB": 2048, "2 GB": 2048, "1024KB": 1,
		"512MB": 512, "1G": 1024, "3M": 3,
	}
	for in, want := range cases {
		got, err := parseSizeMB(in)
		if err != nil {
			t.Fatalf("parseSizeMB(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("parseSizeMB(%q) = %d, want %d", in, got, want)
		}
	}
	if _, err := parseSizeMB("lots"); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestJobMatches(t *testing.T) {
	j := &Job{
		RequestCpus:     4,
		RequestMemoryMB: 8192,
		Requirements:    "(TARGET.HasSingularity == true)",
		Attrs:           classad.Ad{},
	}
	good := classad.Ad{"Cpus": classad.Number(8), "Memory": classad.Number(16384), "HasSingularity": classad.Bool(true)}
	ok, err := j.Matches(good)
	if err != nil || !ok {
		t.Fatalf("good machine rejected: %v %v", ok, err)
	}
	small := classad.Ad{"Cpus": classad.Number(2), "Memory": classad.Number(16384), "HasSingularity": classad.Bool(true)}
	if ok, _ := j.Matches(small); ok {
		t.Fatal("undersized machine accepted")
	}
	noSing := classad.Ad{"Cpus": classad.Number(8), "Memory": classad.Number(16384)}
	if ok, _ := j.Matches(noSing); ok {
		t.Fatal("machine without singularity accepted")
	}
	j2 := &Job{Requirements: ""}
	if ok, _ := j2.Matches(classad.Ad{}); !ok {
		t.Fatal("empty requirements should match")
	}
}

func TestScheddLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("submit.osg.test", k, nil)
	jobs := []*Job{{Owner: "u"}, {Owner: "u"}}
	cl, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cl != 1 {
		t.Fatalf("cluster = %d", cl)
	}
	if s.QueueDepth() != 2 {
		t.Fatalf("queue depth %d", s.QueueDepth())
	}
	k.At(10, func() {
		if err := s.MarkRunning(jobs[0], "site-A"); err != nil {
			t.Error(err)
		}
	})
	k.At(100, func() {
		if err := s.MarkCompleted(jobs[0], 0); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if jobs[0].Status != Completed {
		t.Fatalf("status %v", jobs[0].Status)
	}
	if jobs[0].WaitSeconds() != 10 || jobs[0].ExecSeconds() != 90 {
		t.Fatalf("wait %v exec %v", jobs[0].WaitSeconds(), jobs[0].ExecSeconds())
	}
	if s.Completed() != 1 || s.Done() {
		t.Fatalf("completed %d done %v", s.Completed(), s.Done())
	}
	if s.RunningCount() != 0 {
		t.Fatalf("running %d", s.RunningCount())
	}
}

func TestScheddEvictionRequeues(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(j, "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkEvicted(j); err != nil {
		t.Fatal(err)
	}
	if j.Status != Idle || j.Evictions != 1 {
		t.Fatalf("status %v evictions %d", j.Status, j.Evictions)
	}
	if s.QueueDepth() != 1 {
		t.Fatal("evicted job not requeued")
	}
}

func TestScheddRemove(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(j); err != nil {
		t.Fatal(err)
	}
	if j.Status != Removed || s.QueueDepth() != 0 {
		t.Fatal("remove failed")
	}
	if !s.Done() {
		t.Fatal("schedd with all jobs removed should be done")
	}
	if err := s.Remove(j); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestScheddInvalidTransitions(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkCompleted(j, 0); err == nil {
		t.Fatal("completed an idle job")
	}
	if err := s.MarkEvicted(j); err == nil {
		t.Fatal("evicted an idle job")
	}
	if err := s.MarkRunning(j, "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(j, "h"); err == nil {
		t.Fatal("double start accepted")
	}
	if err := s.Remove(j); err == nil {
		t.Fatal("removed a running job without eviction")
	}
	if _, err := s.Submit(nil); err == nil {
		t.Fatal("empty submit accepted")
	}
}

func TestMaxIdleSubmitThrottle(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	s.MaxIdleSubmit = 2
	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &Job{Owner: "u"})
	}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	if got := len(s.IdleJobs()); got != 2 {
		t.Fatalf("IdleJobs exposed %d, want 2", got)
	}
}

func TestListenerNotification(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	var seen []EventType
	s.Subscribe(func(j *Job, ev EventType) { seen = append(seen, ev) })
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(j, "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkCompleted(j, 0); err != nil {
		t.Fatal(err)
	}
	want := []EventType{EventSubmit, EventExecute, EventTerminated}
	if len(seen) != len(want) {
		t.Fatalf("events %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("events %v, want %v", seen, want)
		}
	}
}

func TestUserLogFormatParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewUserLog(&buf)
	events := []JobEvent{
		{Type: EventSubmit, Cluster: 12, Proc: 0, At: 0, Host: "submit.node"},
		{Type: EventExecute, Cluster: 12, Proc: 0, At: 63, Host: "exec-17.pool"},
		{Type: EventTerminated, Cluster: 12, Proc: 0, At: 213},
		{Type: EventEvicted, Cluster: 12, Proc: 1, At: 99},
		{Type: EventAborted, Cluster: 13, Proc: 0, At: 150},
		{Type: EventHeld, Cluster: 13, Proc: 1, At: 151},
		{Type: EventReleased, Cluster: 13, Proc: 1, At: 152},
	}
	for _, ev := range events {
		if err := log.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ParseUserLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(got), len(events))
	}
	for i, ev := range events {
		g := got[i]
		if g.Type != ev.Type || g.Cluster != ev.Cluster || g.Proc != ev.Proc || g.At != ev.At {
			t.Fatalf("event %d: got %+v, want %+v", i, g, ev)
		}
	}
	if got[1].Host != "exec-17.pool" {
		t.Fatalf("host = %q", got[1].Host)
	}
}

func TestParseUserLogRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"garbage line\n",
		"00x (0001.000.000) 2023-11-12 00:00:00 Job submitted\n",
		"000 bad-id 2023-11-12 00:00:00 Job submitted\n",
		"000 (0001.000.000) not-a-date also-bad Job submitted\n",
	} {
		if _, err := ParseUserLog(strings.NewReader(src)); err == nil {
			t.Fatalf("garbage accepted: %q", src)
		}
	}
}

func TestReduceJobTimes(t *testing.T) {
	events := []JobEvent{
		{Type: EventSubmit, Cluster: 1, Proc: 0, At: 0},
		{Type: EventExecute, Cluster: 1, Proc: 0, At: 100},
		{Type: EventTerminated, Cluster: 1, Proc: 0, At: 400},
		{Type: EventSubmit, Cluster: 1, Proc: 1, At: 0},
		{Type: EventExecute, Cluster: 1, Proc: 1, At: 50},
		{Type: EventEvicted, Cluster: 1, Proc: 1, At: 80},
		{Type: EventExecute, Cluster: 1, Proc: 1, At: 200},
		{Type: EventTerminated, Cluster: 1, Proc: 1, At: 500},
	}
	rows := ReduceJobTimes(events)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].WaitSecs != 100 || rows[0].ExecSecs != 300 {
		t.Fatalf("row0 wait %v exec %v", rows[0].WaitSecs, rows[0].ExecSecs)
	}
	// The evicted job's wait is measured to its final start.
	if rows[1].WaitSecs != 200 || rows[1].ExecSecs != 300 || rows[1].Evictions != 1 {
		t.Fatalf("row1 %+v", rows[1])
	}
}

func TestScheddWritesParsableLog(t *testing.T) {
	var buf bytes.Buffer
	k := sim.NewKernel(1)
	s := NewSchedd("submit.host", k, NewUserLog(&buf))
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err != nil {
		t.Fatal(err)
	}
	k.At(30, func() {
		if err := s.MarkRunning(j, "glidein-3.site"); err != nil {
			t.Error(err)
		}
	})
	k.At(330, func() {
		if err := s.MarkCompleted(j, 0); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if err := s.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ParseUserLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rows := ReduceJobTimes(events)
	if len(rows) != 1 || rows[0].WaitSecs != 30 || rows[0].ExecSecs != 300 {
		t.Fatalf("rows %+v", rows)
	}
}

func TestJobStatusString(t *testing.T) {
	if Idle.String() != "idle" || Running.String() != "running" ||
		Completed.String() != "completed" || Removed.String() != "removed" ||
		Held.String() != "held" {
		t.Fatal("status names wrong")
	}
	if JobStatus(42).String() == "" {
		t.Fatal("unknown status should format")
	}
}

func TestPropertyMaterializeCount(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw % 50)
		sf := &SubmitFile{
			Commands: map[string]string{"executable": "x.sh"},
			Plus:     map[string]string{},
			QueueN:   n,
		}
		jobs, err := sf.Materialize(1, "u")
		if err != nil {
			return false
		}
		if len(jobs) != n {
			return false
		}
		for i, j := range jobs {
			if j.Proc != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitFileWriteRoundTrip(t *testing.T) {
	sf, err := ParseSubmit(strings.NewReader(sampleSubmit))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sf.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sf2, err := ParseSubmit(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if sf2.QueueN != sf.QueueN {
		t.Fatal("queue count changed")
	}
	if sf2.Commands["request_cpus"] != sf.Commands["request_cpus"] {
		t.Fatal("commands changed")
	}
	if sf2.Plus["FDWPhase"] != sf.Plus["FDWPhase"] {
		t.Fatal("plus attributes changed")
	}
}

func TestSubmitAtomicOnInvalidJob(t *testing.T) {
	// A submission with any invalid job must leave no trace: no cluster
	// id consumed, no prefix of the slice staged or mutated.
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	good := &Job{Owner: "u"}
	bad := &Job{Owner: "u", Status: Running}
	if _, err := s.Submit([]*Job{good, bad}); err == nil {
		t.Fatal("invalid submission accepted")
	}
	if good.Cluster != 0 || good.Status != 0 {
		t.Fatalf("rejected submission mutated the valid job: cluster=%d status=%v", good.Cluster, good.Status)
	}
	if s.QueueDepth() != 0 || s.StagedCount() != 0 || len(s.AllJobs()) != 0 {
		t.Fatalf("rejected submission left queue state: idle=%d staged=%d all=%d",
			s.QueueDepth(), s.StagedCount(), len(s.AllJobs()))
	}
	cl, err := s.Submit([]*Job{good})
	if err != nil {
		t.Fatal(err)
	}
	if cl != 1 {
		t.Fatalf("cluster = %d, want 1: rejected submission consumed a cluster id", cl)
	}
}

func TestSubmitGateRejectsWholeSubmission(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	s.SubmitGate = func(jobs []*Job) error {
		return fmt.Errorf("injected submit failure for %d jobs", len(jobs))
	}
	j := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{j}); err == nil {
		t.Fatal("gated submission accepted")
	}
	if j.Cluster != 0 || j.Status != 0 || len(s.AllJobs()) != 0 {
		t.Fatalf("gated submission mutated state: job=%+v all=%d", j, len(s.AllJobs()))
	}
	// Clearing the gate restores normal service, starting at cluster 1.
	s.SubmitGate = nil
	if cl, err := s.Submit([]*Job{j}); err != nil || cl != 1 {
		t.Fatalf("post-gate submit: cluster=%d err=%v", cl, err)
	}
}

// A job nobody records a span for costs no span work: with an
// unclocked registry, which records no spans, Submit formats no span
// id and stores no span, so it allocates no more than with no registry.
func TestSubmitUnclockedAllocatesNoSpanWork(t *testing.T) {
	submitAllocs := func(r *obs.Registry) float64 {
		s := NewSchedd("x", sim.NewKernel(1), nil)
		s.SetObs(r)
		batch := []*Job{{Owner: "u"}}
		return testing.AllocsPerRun(200, func() {
			batch[0] = &Job{Owner: "u"}
			if _, err := s.Submit(batch); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, unclocked := submitAllocs(nil), submitAllocs(obs.NewRegistry(nil))
	if unclocked > off {
		t.Fatalf("Submit allocates %v times with an unclocked registry, %v with none", unclocked, off)
	}
}

func TestSetObsMidRunGuardsPreexistingJobs(t *testing.T) {
	// Jobs submitted before SetObs have no span: every Mark* transition
	// must guard its span lookup (MarkRunning and MarkEvicted used to
	// annotate unconditionally).
	k := sim.NewKernel(1)
	s := NewSchedd("x", k, nil)
	early := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{early}); err != nil {
		t.Fatal(err)
	}
	s.SetObs(obs.NewRegistry(k.Now))
	if err := s.MarkRunning(early, "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkEvicted(early); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(early, "h"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkCompleted(early, 0); err != nil {
		t.Fatal(err)
	}
	if s.JobSpan(early) != nil {
		t.Fatal("span appeared for a pre-SetObs job")
	}
	// Jobs submitted after SetObs get the full span lifecycle.
	late := &Job{Owner: "u"}
	if _, err := s.Submit([]*Job{late}); err != nil {
		t.Fatal(err)
	}
	if s.JobSpan(late) == nil {
		t.Fatal("no span for a post-SetObs job")
	}
}

// RunningCount returns the number of currently running jobs.
func (s *Schedd) RunningCount() int {
	n := 0
	for _, j := range s.all {
		if j.Status == Running {
			n++
		}
	}
	return n
}
