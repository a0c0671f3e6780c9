package dagman

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

const sampleDAG = `
# FDW three-phase workflow
JOB matrices gen_matrices.sub
JOB phaseA phase_a.sub
JOB phaseB phase_b.sub
JOB phaseC phase_c.sub
PARENT matrices CHILD phaseA phaseB
PARENT phaseA phaseB CHILD phaseC
RETRY phaseC 2
`

func TestParseDAG(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleDAG))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 4 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	if d.Nodes["phaseC"].Retry != 2 {
		t.Fatal("RETRY lost")
	}
	c := d.Nodes["phaseC"]
	if len(c.Parents) != 2 {
		t.Fatalf("phaseC parents %v", c.Parents)
	}
	roots := d.Roots()
	if len(roots) != 1 || roots[0].Name != "matrices" {
		t.Fatalf("roots %v", roots)
	}
}

// parseErrorCases are DAG files Parse must reject, each with the start
// of its error; FuzzParse seeds from them too.
var parseErrorCases = []struct{ name, src, want string }{
	{"unknown cmd", "FROB x y\n", `dagman: line 1: unknown command "FROB"`},
	{"short JOB", "JOB only\n", "dagman: line 1: JOB"},
	{"JOB trailing token", "JOB a x.sub bogus\n", "dagman: line 1: JOB"},
	{"JOB token after DONE", "JOB a x.sub DONE extra\n", "dagman: line 1: JOB"},
	{"dup node", "JOB a x.sub\nJOB a y.sub\n", "dagman: line 2: "},
	{"unknown parent", "JOB a x.sub\nPARENT b CHILD a\n", "dagman: line 2: "},
	{"unknown child", "JOB a x.sub\nPARENT a CHILD b\n", "dagman: line 2: "},
	{"self edge", "JOB a x.sub\nPARENT a CHILD a\n", "dagman: line 2: "},
	{"bad RETRY", "JOB a x.sub\nRETRY a lots\n", "dagman: line 2: "},
	{"RETRY unknown", "JOB a x.sub\nRETRY b 1\n", "dagman: line 2: "},
	{"VARS", "JOB a x.sub\nVARS a k=\"v\"\n", `dagman: line 2: unknown command "VARS"`},
	{"CATEGORY", "JOB a x.sub\nCATEGORY a heavy\n", `dagman: line 2: unknown command "CATEGORY"`},
	{"MAXJOBS", "JOB a x.sub\nMAXJOBS heavy 1\n", `dagman: line 2: unknown command "MAXJOBS"`},
	{"SCRIPT", "JOB a x.sub\nSCRIPT PRE a setup.sh\n", `dagman: line 2: unknown command "SCRIPT"`},
	{"empty", "", "dagman: empty DAG"},
	{"cycle", "JOB a x\nJOB b y\nPARENT a CHILD b\nPARENT b CHILD a\n", "dagman: cycle"},
}

func TestParseDAGErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(strings.NewReader(c.src))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: error %q, want prefix %q", c.name, err, c.want)
		}
	}
}

func TestDAGWriteParseRoundTrip(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleDAG))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if len(d2.Nodes) != len(d.Nodes) {
		t.Fatal("node count changed")
	}
	if len(d2.Nodes["phaseC"].Parents) != 2 {
		t.Fatal("edges lost in round trip")
	}
}

func TestDAGDoneMarker(t *testing.T) {
	d, err := Parse(strings.NewReader("JOB a x.sub DONE\nJOB b y.sub\nPARENT a CHILD b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Nodes["a"].Done || d.Nodes["b"].Done {
		t.Fatal("DONE markers wrong")
	}
}

// autoRun wires a schedd to a synthetic executor: submitted jobs start
// after `wait` and complete after `exec` (with the given exit code).
func autoRun(k *sim.Kernel, s *htcondor.Schedd, wait, exec sim.Time, exit func(*htcondor.Job) int) {
	s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) {
		if ev != htcondor.EventSubmit {
			return
		}
		k.After(wait, func() {
			if j.Status != htcondor.Idle {
				return
			}
			if err := s.MarkRunning(j, "local"); err != nil {
				return
			}
			k.After(exec, func() {
				if j.Status == htcondor.Running {
					_ = s.MarkCompleted(j, exit(j))
				}
			})
		})
	})
}

func countingFactory(perNode int, counter *int) JobFactory {
	return func(n *Node) ([]*htcondor.Job, error) {
		*counter++
		jobs := make([]*htcondor.Job, perNode)
		for i := range jobs {
			jobs[i] = &htcondor.Job{Owner: "dag", BaseExecSeconds: 10}
		}
		return jobs, nil
	}
}

func TestExecutorRunsDAGInOrder(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleDAG))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	// A node is submitted only once its parents are done, so the order
	// in which the factory is called is the DAG order.
	var submitOrder []string
	factory := func(n *Node) ([]*htcondor.Job, error) {
		submitOrder = append(submitOrder, n.Name)
		jobs := make([]*htcondor.Job, 3)
		for i := range jobs {
			jobs[i] = &htcondor.Job{Owner: "dag", BaseExecSeconds: 10}
		}
		return jobs, nil
	}
	e, err := NewExecutor("dag", d, k, s, factory)
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 5, 20, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() || e.Failed() {
		t.Fatalf("done=%v failed=%v states=%v", e.Done(), e.Failed(), e.NodeStates())
	}
	if len(submitOrder) != 4 || submitOrder[0] != "matrices" || submitOrder[3] != "phaseC" {
		t.Fatalf("submission order %v", submitOrder)
	}
	// phaseA and phaseB are both children of matrices and parents of phaseC.
	if submitOrder[1] == "phaseC" || submitOrder[2] == "matrices" {
		t.Fatalf("ordering violated: %v", submitOrder)
	}
	if e.RuntimeSeconds() <= 0 {
		t.Fatal("zero runtime")
	}
}

func TestExecutorTopologicalConstraint(t *testing.T) {
	// A chain a→b→c must serialize: total time ≈ 3×(wait+exec).
	d := NewDAG()
	for _, n := range []string{"a", "b", "c"} {
		if err := d.AddNode(&Node{Name: n, SubmitFile: n + ".sub"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("b", "c"); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 5, 20, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() {
		t.Fatal("chain did not finish")
	}
	if got := float64(k.Now()); got != 75 {
		t.Fatalf("chain finished at %v, want 75 (3×25)", got)
	}
}

func TestExecutorRetrySucceedsAfterFailures(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "flaky", SubmitFile: "f.sub", Retry: 2}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	attempts := 0
	factory := func(n *Node) ([]*htcondor.Job, error) {
		attempts++
		return []*htcondor.Job{{Owner: "dag"}}, nil
	}
	e, err := NewExecutor("dag", d, k, s, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first two attempts, succeed on the third.
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
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestExecutorFailureExhaustsRetries(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "bad", SubmitFile: "b.sub", Retry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "child", SubmitFile: "c.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("bad", "child"); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 1, 1, func(*htcondor.Job) int { return 1 }) // always fail
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() || !e.Failed() {
		t.Fatalf("done=%v failed=%v", e.Done(), e.Failed())
	}
	states := e.NodeStates()
	if states["bad"] != NodeFailed {
		t.Fatalf("bad node state %v", states["bad"])
	}
	if states["child"] == NodeDone {
		t.Fatal("child of failed node ran")
	}
}

func TestExecutorRescueDAG(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "ok", SubmitFile: "ok.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "bad", SubmitFile: "bad.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "after", SubmitFile: "after.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("bad", "after"); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 1, 1, func(j *htcondor.Job) int {
		if j.Cluster == 2 { // second submission = "bad" node
			return 1
		}
		return 0
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Failed() {
		t.Fatal("expected failure")
	}
	var buf bytes.Buffer
	if err := e.WriteRescue(&buf); err != nil {
		t.Fatal(err)
	}
	rescue, err := Parse(&buf)
	if err != nil {
		t.Fatalf("rescue DAG unparsable: %v\n%s", err, buf.String())
	}
	if !rescue.Nodes["ok"].Done {
		t.Fatal("completed node not marked DONE in rescue")
	}
	if rescue.Nodes["bad"].Done || rescue.Nodes["after"].Done {
		t.Fatal("incomplete nodes marked DONE in rescue")
	}
}

func TestExecutorResumeFromRescue(t *testing.T) {
	d, err := Parse(strings.NewReader("JOB a x.sub DONE\nJOB b y.sub\nPARENT a CHILD b\n"))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 1, 1, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() || e.Failed() {
		t.Fatal("resume failed")
	}
	if submits != 1 {
		t.Fatalf("submitted %d nodes, want only node b", submits)
	}
}

func TestExecutorAllDoneDAGFinishesImmediately(t *testing.T) {
	d, err := Parse(strings.NewReader("JOB a x.sub DONE\n"))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if !e.Done() || submits != 0 {
		t.Fatalf("done=%v submits=%d", e.Done(), submits)
	}
}

func TestExecutorDoubleStartRejected(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "a", SubmitFile: "a.sub", Done: true}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{
		NodeWaiting: "waiting", NodeReady: "ready", NodeSubmitted: "submitted",
		NodeDone: "done", NodeFailed: "failed",
	} {
		if s.String() != want {
			t.Fatalf("%d → %q, want %q", s, s.String(), want)
		}
	}
}

// submission records one factory invocation: which node, at what sim time.
type submission struct {
	node string
	at   sim.Time
}

// namedFactory materializes one job per node, stamped with the node
// name in Arguments so per-node run behavior can key off it, and logs
// every submission with its sim time.
func namedFactory(k *sim.Kernel, log *[]submission) JobFactory {
	return func(n *Node) ([]*htcondor.Job, error) {
		*log = append(*log, submission{n.Name, k.Now()})
		return []*htcondor.Job{{Owner: "dag", Arguments: n.Name}}, nil
	}
}

// perNodeRun is autoRun with per-node execution time and exit code,
// keyed on the node name namedFactory stamped into Arguments.
func perNodeRun(k *sim.Kernel, s *htcondor.Schedd, wait sim.Time, exec func(node string) sim.Time, exit func(node string) int) {
	s.Subscribe(func(j *htcondor.Job, ev htcondor.EventType) {
		if ev != htcondor.EventSubmit {
			return
		}
		node := j.Arguments
		k.After(wait, func() {
			if j.Status != htcondor.Idle {
				return
			}
			if err := s.MarkRunning(j, "local"); err != nil {
				return
			}
			k.After(exec(node), func() {
				if j.Status == htcondor.Running {
					_ = s.MarkCompleted(j, exit(node))
				}
			})
		})
	})
}

// A node that exhausts its RETRY budget beside an independent sibling
// ends the DAG: the sibling still runs, the DAG finishes failed rather
// than hanging, and the failed node spent its whole budget. The name
// dates from when nodes shared CATEGORY slots; the hang it guards
// against (a permanent failure that never re-ran dispatchReady) does
// not depend on them.
func TestPermanentFailureReleasesCategorySlot(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "bad", SubmitFile: "bad.sub", Retry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "good", SubmitFile: "good.sub"}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var log []submission
	e, err := NewExecutor("dag", d, k, s, namedFactory(k, &log))
	if err != nil {
		t.Fatal(err)
	}
	perNodeRun(k, s, 1, func(string) sim.Time { return 1 }, func(node string) int {
		if node == "bad" {
			return 1
		}
		return 0
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() {
		t.Fatalf("DAG hung after permanent failure: states=%v", e.NodeStates())
	}
	if !e.Failed() {
		t.Fatal("bad node should have failed the DAG")
	}
	states := e.NodeStates()
	if states["bad"] != NodeFailed {
		t.Fatalf("bad = %v, want failed", states["bad"])
	}
	if states["good"] != NodeDone {
		t.Fatalf("good = %v, want done (independent sibling must still run)", states["good"])
	}
	if got := e.NodeRetries()["bad"]; got != 1 {
		t.Fatalf("bad retries = %d, want 1 (full budget)", got)
	}
	if e.TotalRetries() != 1 {
		t.Fatalf("total retries = %d, want 1", e.TotalRetries())
	}
}

// A RETRY resubmission requeues through dispatchReady, so a sibling
// that becomes ready between a flaky node's attempts is dispatched at
// once rather than after the flaky node's budget is gone, and the
// flaky node still spends its whole budget. The name dates from when
// the two competed for a MAXJOBS category slot.
func TestRetryRequeuesThroughCategoryThrottle(t *testing.T) {
	d := NewDAG()
	// gate holds waiter back until flaky has already failed twice;
	// waiter is declared before flaky and must run while flaky still
	// has retries left.
	if err := d.AddNode(&Node{Name: "gate", SubmitFile: "gate.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "waiter", SubmitFile: "waiter.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "flaky", SubmitFile: "flaky.sub", Retry: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("gate", "waiter"); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var log []submission
	e, err := NewExecutor("dag", d, k, s, namedFactory(k, &log))
	if err != nil {
		t.Fatal(err)
	}
	perNodeRun(k, s, 1, func(node string) sim.Time {
		if node == "gate" {
			return 11 // gate finishes between flaky's 2nd and 3rd failure
		}
		return 4
	}, func(node string) int {
		if node == "flaky" {
			return 1
		}
		return 0
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for k.Step() {
	}
	if !e.Done() {
		t.Fatalf("DAG hung: states=%v", e.NodeStates())
	}
	states := e.NodeStates()
	if states["gate"] != NodeDone || states["waiter"] != NodeDone || states["flaky"] != NodeFailed {
		t.Fatalf("states = %v", states)
	}
	if got := e.NodeRetries()["flaky"]; got != 10 {
		t.Fatalf("flaky retries = %d, want 10 (full budget)", got)
	}
	var waiterFirst, flakyLast sim.Time = -1, -1
	flakySubs := 0
	for _, sub := range log {
		switch sub.node {
		case "waiter":
			if waiterFirst < 0 {
				waiterFirst = sub.at
			}
		case "flaky":
			flakyLast = sub.at
			flakySubs++
		}
	}
	if waiterFirst < 0 {
		t.Fatal("waiter never submitted")
	}
	if flakySubs != 11 {
		t.Fatalf("flaky submitted %d times, want 11 (first attempt + 10 retries)", flakySubs)
	}
	if waiterFirst >= flakyLast {
		t.Fatalf("waiter first submitted at %v, after flaky's last attempt at %v: retries starved a ready sibling",
			waiterFirst, flakyLast)
	}
}

// Satellite: rescue round trip. A failed run's WriteRescue output,
// re-parsed and re-executed on a fresh kernel, resumes exactly the
// non-DONE nodes and converges to the same final node states as a run
// that never failed.
func TestRescueRoundTripResumesAndConverges(t *testing.T) {
	mkDAG := func() *DAG {
		d := NewDAG()
		for _, n := range []string{"a", "b"} {
			if err := d.AddNode(&Node{Name: n, SubmitFile: n + ".sub"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.AddNode(&Node{Name: "c", SubmitFile: "c.sub", Retry: 1}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"a", "b"} {
			if err := d.AddEdge(p, "c"); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	run := func(d *DAG, exit func(node string) int) (*Executor, []submission) {
		k := sim.NewKernel(1)
		s := htcondor.NewSchedd("dag", k, nil)
		var log []submission
		e, err := NewExecutor("dag", d, k, s, namedFactory(k, &log))
		if err != nil {
			t.Fatal(err)
		}
		perNodeRun(k, s, 1, func(string) sim.Time { return 1 }, exit)
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		for k.Step() {
		}
		return e, log
	}

	// Run 1: b fails permanently → a done, b failed, c never ran.
	e1, _ := run(mkDAG(), func(node string) int {
		if node == "b" {
			return 1
		}
		return 0
	})
	if !e1.Done() || !e1.Failed() {
		t.Fatalf("run 1: done=%v failed=%v", e1.Done(), e1.Failed())
	}
	var buf bytes.Buffer
	if err := e1.WriteRescue(&buf); err != nil {
		t.Fatal(err)
	}
	rescue, err := Parse(&buf)
	if err != nil {
		t.Fatalf("rescue unparsable: %v\n%s", err, buf.String())
	}

	// Run 2 resumes from the rescue with the fault fixed.
	e2, log2 := run(rescue, func(string) int { return 0 })
	if !e2.Done() || e2.Failed() {
		t.Fatalf("run 2: done=%v failed=%v states=%v", e2.Done(), e2.Failed(), e2.NodeStates())
	}
	resubmitted := map[string]bool{}
	for _, sub := range log2 {
		resubmitted[sub.node] = true
	}
	if resubmitted["a"] {
		t.Fatal("rescue run resubmitted a DONE node")
	}
	if !resubmitted["b"] || !resubmitted["c"] {
		t.Fatalf("rescue run skipped a non-DONE node: submitted %v", resubmitted)
	}

	// The resumed run converges to the same final states as a run that
	// never saw the fault.
	e3, _ := run(mkDAG(), func(string) int { return 0 })
	if !reflect.DeepEqual(e2.NodeStates(), e3.NodeStates()) {
		t.Fatalf("resumed states %v != uninterrupted states %v", e2.NodeStates(), e3.NodeStates())
	}
}

// A short DAG file costs no 1 MiB scanner buffer: the line buffer
// grows on demand.
func TestParseSmallDAGAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := Parse(strings.NewReader("JOB a x.sub\nJOB b y.sub\n")); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / n; b >= 64<<10 {
		t.Fatalf("Parse of a two-line DAG allocates %d B, want < 64 KiB", b)
	}
}
