package dagman

import (
	"bytes"
	"fmt"
	"reflect"
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
VARS phaseA nrjobs="64" kernel="exponential"
RETRY phaseC 2
CATEGORY phaseC heavy
MAXJOBS heavy 1
`

func TestParseDAG(t *testing.T) {
	d, err := Parse(strings.NewReader(sampleDAG))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 4 {
		t.Fatalf("%d nodes", len(d.Nodes))
	}
	a := d.Nodes["phaseA"]
	if a.Vars["nrjobs"] != "64" || a.Vars["kernel"] != "exponential" {
		t.Fatalf("VARS = %v", a.Vars)
	}
	if d.Nodes["phaseC"].Retry != 2 {
		t.Fatal("RETRY lost")
	}
	if d.Nodes["phaseC"].Category != "heavy" || d.MaxJobs["heavy"] != 1 {
		t.Fatal("CATEGORY/MAXJOBS lost")
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

func TestParseDAGErrors(t *testing.T) {
	cases := map[string]string{
		"unknown cmd":    "FROB x y\n",
		"short JOB":      "JOB only\n",
		"dup node":       "JOB a x.sub\nJOB a y.sub\n",
		"unknown parent": "JOB a x.sub\nPARENT b CHILD a\n",
		"unknown child":  "JOB a x.sub\nPARENT a CHILD b\n",
		"self edge":      "JOB a x.sub\nPARENT a CHILD a\n",
		"bad VARS":       "JOB a x.sub\nVARS a novalue\n",
		"unquoted VARS":  "JOB a x.sub\nVARS a k=v\n",
		"bad RETRY":      "JOB a x.sub\nRETRY a lots\n",
		"RETRY unknown":  "JOB a x.sub\nRETRY b 1\n",
		"bad MAXJOBS":    "JOB a x.sub\nMAXJOBS cat zero\n",
		"empty":          "",
		"cycle":          "JOB a x\nJOB b y\nPARENT a CHILD b\nPARENT b CHILD a\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: accepted", name)
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
	if d2.Nodes["phaseA"].Vars["nrjobs"] != "64" {
		t.Fatal("vars lost in round trip")
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
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(3, &submits))
	if err != nil {
		t.Fatal(err)
	}
	var doneOrder []string
	e.OnNodeDone = func(n *Node) { doneOrder = append(doneOrder, n.Name) }
	autoRun(k, s, 5, 20, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !e.Done() || e.Failed() {
		t.Fatalf("done=%v failed=%v states=%v", e.Done(), e.Failed(), e.NodeStates())
	}
	if len(doneOrder) != 4 || doneOrder[0] != "matrices" || doneOrder[3] != "phaseC" {
		t.Fatalf("completion order %v", doneOrder)
	}
	// phaseA and phaseB are both children of matrices and parents of phaseC.
	if doneOrder[1] == "phaseC" || doneOrder[2] == "matrices" {
		t.Fatalf("ordering violated: %v", doneOrder)
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
	k.Run()
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
	k.Run()
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
	k.Run()
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
	k.Run()
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
	k.Run()
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

func TestCategoryThrottleLimitsConcurrency(t *testing.T) {
	d := NewDAG()
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		if err := d.AddNode(&Node{Name: n, SubmitFile: n + ".sub", Category: "lim"}); err != nil {
			t.Fatal(err)
		}
	}
	d.MaxJobs["lim"] = 2
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	autoRun(k, s, 1, 10, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if submits != 2 {
		t.Fatalf("submitted %d nodes at start, want 2 (throttled)", submits)
	}
	k.Run()
	if !e.Done() || submits != 4 {
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

func TestParseScriptPrePost(t *testing.T) {
	src := `
JOB a a.sub
SCRIPT PRE a setup.sh --fetch inputs
SCRIPT POST a archive.sh --compress
`
	d, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes["a"].PreScript != "setup.sh --fetch inputs" {
		t.Fatalf("PreScript %q", d.Nodes["a"].PreScript)
	}
	if d.Nodes["a"].PostScript != "archive.sh --compress" {
		t.Fatalf("PostScript %q", d.Nodes["a"].PostScript)
	}
	// Round trip.
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Nodes["a"].PreScript != d.Nodes["a"].PreScript || d2.Nodes["a"].PostScript != d.Nodes["a"].PostScript {
		t.Fatal("scripts lost in round trip")
	}
}

func TestParseScriptErrors(t *testing.T) {
	for name, src := range map[string]string{
		"short":        "JOB a a.sub\nSCRIPT PRE a\n",
		"unknown node": "JOB a a.sub\nSCRIPT PRE b x.sh\n",
		"bad kind":     "JOB a a.sub\nSCRIPT DURING a x.sh\n",
	} {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestExecutorRunsScripts(t *testing.T) {
	d, err := Parse(strings.NewReader("JOB a a.sub\nSCRIPT PRE a pre.sh\nSCRIPT POST a post.sh\n"))
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
	var ran []string
	e.Scripts = func(n *Node, kind, cmdline string) error {
		ran = append(ran, kind+":"+cmdline)
		return nil
	}
	autoRun(k, s, 1, 1, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !e.Done() || e.Failed() {
		t.Fatal("script DAG did not finish")
	}
	if len(ran) != 2 || ran[0] != "PRE:pre.sh" || ran[1] != "POST:post.sh" {
		t.Fatalf("scripts ran %v", ran)
	}
}

func TestExecutorPreScriptFailureRetries(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "a", SubmitFile: "a.sub", PreScript: "pre.sh", Retry: 2}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	preFails := 2
	e.Scripts = func(n *Node, kind, cmdline string) error {
		if kind == "PRE" && preFails > 0 {
			preFails--
			return errPre
		}
		return nil
	}
	autoRun(k, s, 1, 1, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !e.Done() || e.Failed() {
		t.Fatal("PRE-script retries did not recover")
	}
	if submits != 1 {
		t.Fatalf("factory ran %d times, want 1 (only the successful attempt submits)", submits)
	}
}

func TestExecutorPostScriptFailureFailsNode(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "a", SubmitFile: "a.sub", PostScript: "post.sh"}); err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(1)
	s := htcondor.NewSchedd("dag", k, nil)
	var submits int
	e, err := NewExecutor("dag", d, k, s, countingFactory(1, &submits))
	if err != nil {
		t.Fatal(err)
	}
	e.Scripts = func(n *Node, kind, cmdline string) error {
		if kind == "POST" {
			return errPost
		}
		return nil
	}
	autoRun(k, s, 1, 1, func(*htcondor.Job) int { return 0 })
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !e.Done() || !e.Failed() {
		t.Fatalf("POST failure should fail the DAG: done=%v failed=%v", e.Done(), e.Failed())
	}
}

var (
	errPre  = fmt.Errorf("pre script failed")
	errPost = fmt.Errorf("post script failed")
)

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

// Regression: a node that exhausts its RETRY budget must release its
// category slot to throttled siblings. failNodeAttempted used to mark
// the node failed without calling dispatchReady, so with MAXJOBS 1 the
// sibling stayed ready-but-never-submitted and the DAG hung: the event
// loop drained with Done() false.
func TestPermanentFailureReleasesCategorySlot(t *testing.T) {
	d := NewDAG()
	if err := d.AddNode(&Node{Name: "bad", SubmitFile: "bad.sub", Category: "c", Retry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "good", SubmitFile: "good.sub", Category: "c"}); err != nil {
		t.Fatal(err)
	}
	d.MaxJobs["c"] = 1
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
	k.Run()
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
		t.Fatalf("good = %v, want done (throttled sibling must still run)", states["good"])
	}
	if got := e.NodeRetries()["bad"]; got != 1 {
		t.Fatalf("bad retries = %d, want 1", got)
	}
	if e.TotalRetries() != 1 {
		t.Fatalf("total retries = %d, want 1", e.TotalRetries())
	}
}

// Regression: a RETRY resubmission must requeue through dispatchReady
// rather than call submitNode directly, so it competes for its category
// slot under MAXJOBS in declaration order. Before the fix a flaky node
// retried back-to-back and starved an earlier-declared sibling until
// its entire RETRY budget was spent.
func TestRetryRequeuesThroughCategoryThrottle(t *testing.T) {
	d := NewDAG()
	// gate holds waiter back until flaky has already failed twice; when
	// flaky's third failure frees the slot, waiter — declared before
	// flaky — must get it, interleaving with flaky's remaining retries.
	if err := d.AddNode(&Node{Name: "gate", SubmitFile: "gate.sub"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "waiter", SubmitFile: "waiter.sub", Category: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddNode(&Node{Name: "flaky", SubmitFile: "flaky.sub", Category: "c", Retry: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("gate", "waiter"); err != nil {
		t.Fatal(err)
	}
	d.MaxJobs["c"] = 1
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
	k.Run()
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
	for _, sub := range log {
		switch sub.node {
		case "waiter":
			if waiterFirst < 0 {
				waiterFirst = sub.at
			}
		case "flaky":
			flakyLast = sub.at
		}
	}
	if waiterFirst < 0 {
		t.Fatal("waiter never submitted")
	}
	// The pinned behavior: waiter is dispatched as soon as a flaky
	// failure frees the slot, not only after flaky's budget is gone.
	if waiterFirst >= flakyLast {
		t.Fatalf("retry bypassed the throttle: waiter first submitted at %v, after flaky's last attempt at %v",
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
		k.Run()
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
