package htcondor

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"
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
max_retries    = 2
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

// badSubmits are submit files ParseSubmit must reject.
var badSubmits = map[string]string{
	"no queue":          "executable = x\n",
	"double queue":      "executable = x\nqueue\nqueue\n",
	"bad queue count":   "executable = x\nqueue -2\n",
	"huge queue count":  "executable = x\nqueue 999999999999999999\n",
	"no equals":         "executable x\nqueue\n",
	"empty key":         " = x\nqueue\n",
	"dangling cont":     "executable = x \\\n",
	"queue as a key":    "queue=3\nqueue\n",
	"tab-led bad count": "executable = x\nqueue\t= 3\n",
}

// continuedSubmit has a bare queue and a continuation line.
const continuedSubmit = "executable = a.sh\narguments = one \\\n two\nqueue\n"

// SubmitSamples returns every submit file the tests in this file
// parse, in a fixed order; FuzzParseSubmit seeds its corpus from them.
func SubmitSamples() []string {
	names := make([]string, 0, len(badSubmits))
	for name := range badSubmits {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := []string{sampleSubmit, continuedSubmit}
	for _, name := range names {
		samples = append(samples, badSubmits[name])
	}
	return samples
}

func TestParseSubmitErrors(t *testing.T) {
	for name, src := range badSubmits {
		_, err := ParseSubmit(strings.NewReader(src))
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !strings.HasPrefix(err.Error(), "htcondor: ") {
			t.Fatalf("%s: error %q does not name the parser", name, err)
		}
	}
}

// TestParseSubmitQueueCountBound: a hostile queue count is a line
// error, not a later makeslice panic in Materialize, while the paper's
// largest phase (25,000 phase C jobs) still parses and materializes.
func TestParseSubmitQueueCountBound(t *testing.T) {
	_, err := ParseSubmit(strings.NewReader(badSubmits["huge queue count"]))
	if err == nil || !strings.HasPrefix(err.Error(), "htcondor: line 2: ") {
		t.Fatalf("hostile queue count: error %v, want an htcondor: line 2 error", err)
	}
	sf, err := ParseSubmit(strings.NewReader("executable = x\nqueue 25000\n"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sf.Materialize(1, "u")
	if err != nil || len(jobs) != 25000 {
		t.Fatalf("25,000-job phase: %d jobs, err %v", len(jobs), err)
	}
	// Write refuses what ParseSubmit would reject, so an emitted file
	// always parses back.
	sf.QueueN = maxQueueCount + 1
	if err := sf.Write(io.Discard); err == nil {
		t.Fatal("Write accepted an unparseable queue count")
	}
}

func TestParseSubmitBareQueueAndContinuation(t *testing.T) {
	sf, err := ParseSubmit(strings.NewReader(continuedSubmit))
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
	if j.MaxRetries != 2 {
		t.Fatalf("MaxRetries = %d, want 2", j.MaxRetries)
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

// Materialize parses a +attribute naming no macro once per file, not
// once per proc: a 1,000-proc file with four constant +FDW attributes
// costs a few allocations per job (the Job and its Attrs map), where
// re-parsing every expression per proc cost over a hundred.
func TestMaterializeParsesConstantAttrsOnce(t *testing.T) {
	src := "executable = x.sh\narguments = --n 1\n" +
		"+FDWPhase = \"C\"\n+FDWExecSeconds = 1050\n+FDWInputBytes = 973000000\n+FDWOutputBytes = 52000000\n" +
		"queue 1000\n"
	sf, err := ParseSubmit(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sf.Materialize(1, "u"); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := allocs / 1000; perJob > 6 {
		t.Fatalf("Materialize allocates %.1f objects per job, want at most 6", perJob)
	}
}

// A macro in a +attribute still expands per proc, and every job owns
// its Attrs map.
func TestMaterializeExpandsPlusAttrMacros(t *testing.T) {
	src := "executable = x.sh\n+FDWIndex = $(Process) * 10\n+FDWTag = \"c$(Cluster)\"\n+FDWPhase = \"C\"\nqueue 3\n"
	sf, err := ParseSubmit(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sf.Materialize(7, "u")
	if err != nil {
		t.Fatal(err)
	}
	jobs[0].Attrs["FDWPhase"] = classad.String("changed")
	for proc, j := range jobs {
		if v, _ := j.Attrs.Lookup("FDWIndex"); v != classad.Number(float64(proc*10)) {
			t.Errorf("proc %d: FDWIndex = %v, want %d", proc, v, proc*10)
		}
		if v, _ := j.Attrs.Lookup("FDWTag"); v != classad.String("c7") {
			t.Errorf("proc %d: FDWTag = %v, want c7", proc, v)
		}
		if v, _ := j.Attrs.Lookup("FDWPhase"); proc > 0 && v != classad.String("C") {
			t.Errorf("proc %d: FDWPhase = %v: jobs share an Attrs map", proc, v)
		}
	}
}

// expandMacros agrees with the strings.Replacer it replaced, the
// reference spec here, on strings built from macro fragments.
func TestExpandMacrosMatchesReplacer(t *testing.T) {
	parts := []string{"$(", "$", "(", ")", "Process)", "process)", "PROCESS)", "Cluster)", "cluster)", "CLUSTER)", "PrOcess)", "x", " "}
	check := func(picks []uint8, cluster, proc uint16) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(parts[int(p)%len(parts)])
		}
		c, pr := strconv.Itoa(int(cluster)), strconv.Itoa(int(proc))
		want := strings.NewReplacer(
			"$(Process)", pr, "$(process)", pr, "$(PROCESS)", pr,
			"$(Cluster)", c, "$(cluster)", c, "$(CLUSTER)", c,
		).Replace(b.String())
		return expandMacros(b.String(), int(cluster), int(proc)) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// heapBytesPerCall is the average heap bytes one call of f allocates.
func heapBytesPerCall(n int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// A short file costs no 1 MiB scanner buffer: the line buffer grows on
// demand.
func TestSmallParseAllocatesLittle(t *testing.T) {
	for name, parse := range map[string]func() error{
		"ParseSubmit": func() error {
			_, err := ParseSubmit(strings.NewReader("executable = a.sh\nqueue\n"))
			return err
		},
		"ParseUserLog": func() error {
			_, err := ParseUserLog(strings.NewReader("000 (0001.000.000) 2023-11-12 00:00:00 Job submitted from host: <s>\n...\n"))
			return err
		},
	} {
		var err error
		if b := heapBytesPerCall(50, func() { err = parse() }); b >= 64<<10 {
			t.Errorf("%s of a two-line file allocates %d B, want < 64 KiB", name, b)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The growable buffer keeps the 1 MiB line bound: a line of 1 MiB - 1
// bytes plus its newline parses, one a byte longer does not.
func TestParseSubmitLineBound(t *testing.T) {
	line := func(n int) string { return "k = " + strings.Repeat("a", n-len("k = ")) + "\nqueue\n" }
	if _, err := ParseSubmit(strings.NewReader(line(1<<20 - 1))); err != nil {
		t.Fatalf("line of 1 MiB - 1 bytes rejected: %v", err)
	}
	if _, err := ParseSubmit(strings.NewReader(line(1 << 20))); err == nil {
		t.Fatal("line of 1 MiB accepted")
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
	for k.Step() {
	}
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

// TestAppendIdleOwners: the owners with idle jobs are appended sorted
// after whatever the buffer already holds, which stays as it was; an
// owner whose last idle job is removed drops out; and appending into a
// buffer with room allocates nothing.
func TestAppendIdleOwners(t *testing.T) {
	s := NewSchedd("x", sim.NewKernel(1), nil)
	jobs := []*Job{{Owner: "carol"}, {Owner: "alice"}, {Owner: "bob"}, {Owner: "alice"}}
	if _, err := s.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	got := s.AppendIdleOwners([]string{"zed", "amy"})
	if want := []string{"zed", "amy", "alice", "bob", "carol"}; !slices.Equal(got, want) {
		t.Fatalf("AppendIdleOwners = %q, want %q", got, want)
	}
	if err := s.Remove(jobs[2]); err != nil {
		t.Fatal(err)
	}
	buf := make([]string, 0, 8)
	if got := s.AppendIdleOwners(buf); !slices.Equal(got, []string{"alice", "carol"}) {
		t.Fatalf("after removing bob's job: %q", got)
	}
	if n := testing.AllocsPerRun(10, func() { buf = s.AppendIdleOwners(buf[:0]) }); n != 0 {
		t.Fatalf("AppendIdleOwners into a buffer with room: %v allocs", n)
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
	if got := s.QueueDepth(); got != 2 {
		t.Fatalf("QueueDepth = %d, want 2", got)
	}
	if got := s.StagedCount(); got != 3 {
		t.Fatalf("StagedCount = %d, want 3", got)
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
	for k.Step() {
	}
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
