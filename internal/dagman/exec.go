package dagman

import (
	"fmt"
	"io"

	"fdw/internal/htcondor"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

// NodeState tracks executor progress for one node.
type NodeState int

// Node lifecycle states.
const (
	NodeWaiting NodeState = iota
	NodeReady
	NodeSubmitted
	NodeDone
	NodeFailed
)

func (s NodeState) String() string {
	switch s {
	case NodeWaiting:
		return "waiting"
	case NodeReady:
		return "ready"
	case NodeSubmitted:
		return "submitted"
	case NodeDone:
		return "done"
	case NodeFailed:
		return "failed"
	default:
		return fmt.Sprintf("NodeState(%d)", int(s))
	}
}

// JobFactory materializes the jobs for a node. FDW supplies one that
// expands the node's submit description with its VARS; tests supply
// synthetic jobs. A factory error fails the node.
type JobFactory func(n *Node) ([]*htcondor.Job, error)

// ScriptRunner executes a node's SCRIPT PRE/POST command line. A nil
// runner treats every script as an immediate success; a non-nil error
// fails the node (triggering RETRY, as DAGMan does).
type ScriptRunner func(n *Node, kind, cmdline string) error

// Executor runs a DAG against a schedd. One Executor corresponds to one
// `condor_submit_dag` invocation in the paper; the concurrent-DAGMans
// experiment runs several Executors (each with its own schedd identity)
// against the same pool.
type Executor struct {
	Name string

	dag     *DAG
	kernel  *sim.Kernel
	schedd  *htcondor.Schedd
	factory JobFactory

	// Scripts runs SCRIPT PRE/POST command lines (nil = always succeed).
	Scripts ScriptRunner

	state    map[string]*nodeRun
	active   map[string]int // category → active node count
	finished int
	failed   int
	inflight int // nodes currently NodeSubmitted
	started  bool

	// RetryDelay, if set, returns how long a failed node attempt waits
	// before its RETRY resubmission re-enters dispatch (the recovery
	// layer's exponential backoff; attempt is the just-failed attempt
	// number, starting at 1). nil — or a non-positive return — keeps
	// DAGMan's classic same-tick requeue, byte-identical to the hook
	// being absent.
	RetryDelay func(node string, attempt int) sim.Time

	// Obs, if set, receives node-lifecycle metrics (ready/running/done
	// counts, retries, rescue writes). Purely passive: scheduling
	// decisions never consult it.
	Obs *obs.Registry
	met execMetrics // handles resolved from Obs, rebuilt when it changes

	StartTime sim.Time
	EndTime   sim.Time
	done      bool
}

type nodeRun struct {
	node      *Node
	state     NodeState
	cluster   int
	jobs      []*htcondor.Job
	remaining int
	attempts  int
	failures  int
	retries   int  // failed attempts that were requeued (RETRY budget spent)
	held      bool // NodeReady but waiting out a RetryDelay backoff
}

// NewExecutor prepares (but does not start) a DAG run.
func NewExecutor(name string, d *DAG, k *sim.Kernel, schedd *htcondor.Schedd, factory JobFactory) (*Executor, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("dagman: nil job factory")
	}
	e := &Executor{
		Name:    name,
		dag:     d,
		kernel:  k,
		schedd:  schedd,
		factory: factory,
		state:   map[string]*nodeRun{},
		active:  map[string]int{},
	}
	for _, nodeName := range d.Order {
		e.state[nodeName] = &nodeRun{node: d.Nodes[nodeName]}
	}
	schedd.Subscribe(e.onJobEvent)
	return e, nil
}

// execMetrics caches the executor's metric handles so the node-lifecycle
// hot path skips the registry's name+label map lookups. Obs is a public
// field assigned after construction, so handles resolve lazily and are
// rebuilt whenever the registry pointer changes. The per-node retry
// counters are keyed by node name and filled on first use.
type execMetrics struct {
	reg *obs.Registry

	running, done, failed, pending          *obs.Gauge
	submissions, retries, failures, rescues *obs.Counter
	retryBackoff                            *obs.Histogram
	nodeRetries                             map[string]*obs.Counter
}

// metrics returns the cached handle set, or nil when Obs is unset.
func (e *Executor) metrics() *execMetrics {
	if e.Obs == nil {
		return nil
	}
	if e.met.reg != e.Obs {
		r := e.Obs
		e.met = execMetrics{
			reg:          r,
			running:      r.Gauge("fdw_dagman_nodes_running", "dag", e.Name),
			done:         r.Gauge("fdw_dagman_nodes_done", "dag", e.Name),
			failed:       r.Gauge("fdw_dagman_nodes_failed", "dag", e.Name),
			pending:      r.Gauge("fdw_dagman_nodes_pending", "dag", e.Name),
			submissions:  r.Counter("fdw_dagman_node_submissions_total", "dag", e.Name),
			retries:      r.Counter("fdw_dagman_retries_total", "dag", e.Name),
			failures:     r.Counter("fdw_dagman_node_failures_total", "dag", e.Name),
			rescues:      r.Counter("fdw_dagman_rescue_writes_total", "dag", e.Name),
			retryBackoff: r.Histogram("fdw_dagman_retry_backoff_seconds", "dag", e.Name),
			nodeRetries:  map[string]*obs.Counter{},
		}
	}
	return &e.met
}

// nodeRetry returns the per-node retry counter, resolving it once.
func (m *execMetrics) nodeRetry(dag, node string) *obs.Counter {
	c, ok := m.nodeRetries[node]
	if !ok {
		//lint:allow seamguard reachable only via metrics(), which returns nil unless Obs (and so reg) is set
		c = m.reg.Counter("fdw_dagman_node_retries_total", "dag", dag, "node", node)
		m.nodeRetries[node] = c
	}
	return c
}

// nodeGauges refreshes the node-progress gauges.
func (e *Executor) nodeGauges() {
	m := e.metrics()
	if m == nil {
		return
	}
	total := len(e.dag.Order)
	m.running.Set(float64(e.inflight))
	m.done.Set(float64(e.finished))
	m.failed.Set(float64(e.failed))
	m.pending.Set(float64(total - e.finished - e.failed - e.inflight))
}

// Start submits every ready root node. Nodes pre-marked DONE are
// skipped (rescue-DAG semantics).
func (e *Executor) Start() error {
	if e.started {
		return fmt.Errorf("dagman: executor %q already started", e.Name)
	}
	e.started = true
	e.StartTime = e.kernel.Now()
	for _, name := range e.dag.Order {
		nr := e.state[name]
		if nr.node.Done {
			nr.state = NodeDone
			e.finished++
		}
	}
	// A DAG whose every node is pre-DONE finishes immediately.
	if e.finished == len(e.dag.Order) {
		e.done = true
		e.EndTime = e.kernel.Now()
		return nil
	}
	e.dispatchReady()
	return nil
}

// Done reports whether every node has finished (or the DAG failed).
func (e *Executor) Done() bool { return e.done }

// Failed reports whether any node exhausted its retries.
func (e *Executor) Failed() bool { return e.failed > 0 }

// TotalRetries returns how many failed node attempts were requeued
// under the RETRY budget, summed across the DAG (the counterpart of the
// fdw_dagman_node_retries_total metric, available with obs off).
func (e *Executor) TotalRetries() int {
	n := 0
	for _, nr := range e.state {
		n += nr.retries
	}
	return n
}

// RuntimeSeconds returns the DAG wall time (so far, if still running).
func (e *Executor) RuntimeSeconds() float64 {
	end := e.EndTime
	if !e.done {
		end = e.kernel.Now()
	}
	return float64(end - e.StartTime)
}

// ready reports whether all parents of n completed.
func (e *Executor) ready(n *Node) bool {
	for _, p := range n.Parents {
		if e.state[p].state != NodeDone {
			return false
		}
	}
	return true
}

// dispatchReady submits every waiting node whose parents are done,
// honoring category throttles, in declaration order.
func (e *Executor) dispatchReady() {
	for _, name := range e.dag.Order {
		nr := e.state[name]
		if nr.state != NodeWaiting && nr.state != NodeReady {
			continue
		}
		if nr.held {
			continue // backoff timer owns this node's next dispatch
		}
		if !e.ready(nr.node) {
			continue
		}
		nr.state = NodeReady
		if cat := nr.node.Category; cat != "" {
			if limit, ok := e.dag.MaxJobs[cat]; ok && e.active[cat] >= limit {
				continue
			}
		}
		e.submitNode(nr)
	}
}

func (e *Executor) submitNode(nr *nodeRun) {
	nr.attempts++
	if nr.node.PreScript != "" && e.Scripts != nil {
		if err := e.Scripts(nr.node, "PRE", nr.node.PreScript); err != nil {
			e.failNodeAttempted(nr)
			return
		}
	}
	jobs, err := e.factory(nr.node)
	if err != nil || len(jobs) == 0 {
		e.failNodeAttempted(nr)
		return
	}
	cluster, err := e.schedd.Submit(jobs)
	if err != nil {
		e.failNode(nr)
		return
	}
	nr.cluster = cluster
	nr.jobs = jobs
	nr.remaining = len(jobs)
	nr.state = NodeSubmitted
	e.inflight++
	if cat := nr.node.Category; cat != "" {
		e.active[cat]++
	}
	if m := e.metrics(); m != nil {
		m.submissions.Inc()
		e.nodeGauges()
	}
}

// failNode handles a failure after jobs ran (attempts already counted
// by submitNode).
func (e *Executor) failNode(nr *nodeRun) { e.failNodeAttempted(nr) }

// failNodeAttempted retries the node if budget remains, else fails it.
func (e *Executor) failNodeAttempted(nr *nodeRun) {
	if nr.attempts <= nr.node.Retry {
		// Retry: requeue the node as ready rather than resubmitting
		// directly, so the attempt goes back through dispatchReady and
		// honors the category MAXJOBS throttle (and declaration-order
		// fairness) like any other dispatch.
		nr.retries++
		if m := e.metrics(); m != nil {
			m.retries.Inc()
			m.nodeRetry(e.Name, nr.node.Name).Inc()
		}
		nr.state = NodeReady
		var delay sim.Time
		if e.RetryDelay != nil {
			delay = e.RetryDelay(nr.node.Name, nr.attempts)
		}
		if delay > 0 {
			// Backoff: hold the node out of dispatch until the delay
			// elapses, then requeue through the normal throttle path. A
			// held node still counts as dispatchable, so checkComplete
			// keeps the DAG alive until the timer fires.
			nr.held = true
			if m := e.metrics(); m != nil {
				m.retryBackoff.Observe(float64(delay))
			}
			e.kernel.After(delay, func() {
				nr.held = false
				e.dispatchReady()
			})
			return
		}
		e.dispatchReady()
		return
	}
	nr.state = NodeFailed
	e.failed++
	if m := e.metrics(); m != nil {
		m.failures.Inc()
		e.nodeGauges()
	}
	// A permanent failure releases its category slot: siblings throttled
	// behind this node must be dispatched now, or the DAG would hang with
	// checkComplete seeing them dispatchable while nothing ever submits
	// them.
	e.dispatchReady()
	e.checkComplete()
}

// onJobEvent watches the schedd for terminations belonging to our nodes.
func (e *Executor) onJobEvent(j *htcondor.Job, ev htcondor.EventType) {
	if ev != htcondor.EventTerminated && ev != htcondor.EventAborted {
		return
	}
	for _, nr := range e.state {
		if nr.state != NodeSubmitted || nr.cluster != j.Cluster {
			continue
		}
		nr.remaining--
		if ev == htcondor.EventAborted || j.ExitCode != 0 {
			nr.failures++
		}
		if nr.remaining > 0 {
			return
		}
		// Node finished: all jobs terminated.
		e.inflight--
		if cat := nr.node.Category; cat != "" {
			e.active[cat]--
		}
		if nr.failures == 0 && nr.node.PostScript != "" && e.Scripts != nil {
			if err := e.Scripts(nr.node, "POST", nr.node.PostScript); err != nil {
				nr.failures++
			}
		}
		if nr.failures > 0 {
			nr.failures = 0
			e.failNode(nr)
		} else {
			nr.state = NodeDone
			e.finished++
			e.nodeGauges()
			e.checkComplete()
			if !e.done {
				e.dispatchReady()
			}
		}
		return
	}
}

func (e *Executor) checkComplete() {
	if e.done {
		return
	}
	for _, nr := range e.state {
		switch nr.state {
		case NodeDone, NodeFailed:
			continue
		default:
			// A failed DAG stops making progress once nothing is in
			// flight and nothing can become ready.
			if e.failed > 0 && !e.anyInFlight() && !e.anyDispatchable() {
				e.done = true
				e.EndTime = e.kernel.Now()
			}
			return
		}
	}
	e.done = true
	e.EndTime = e.kernel.Now()
}

func (e *Executor) anyInFlight() bool {
	for _, nr := range e.state {
		if nr.state == NodeSubmitted {
			return true
		}
	}
	return false
}

func (e *Executor) anyDispatchable() bool {
	for _, nr := range e.state {
		if (nr.state == NodeWaiting || nr.state == NodeReady) && e.ready(nr.node) {
			return true
		}
	}
	return false
}

// WriteRescue emits a rescue DAG: the original DAG with completed nodes
// marked DONE, so a re-run resumes where this one stopped.
//
//lint:allow deadexport rescue DAG writer; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func (e *Executor) WriteRescue(w io.Writer) error {
	if m := e.metrics(); m != nil {
		m.rescues.Inc()
	}
	rescue := NewDAG()
	rescue.Comments = append(rescue.Comments,
		fmt.Sprintf("rescue DAG for %s: %d/%d nodes done", e.Name, e.finished, len(e.dag.Order)))
	for _, name := range e.dag.Order {
		orig := e.dag.Nodes[name]
		n := &Node{
			Name:       orig.Name,
			SubmitFile: orig.SubmitFile,
			Vars:       orig.Vars,
			Retry:      orig.Retry,
			Category:   orig.Category,
			PreScript:  orig.PreScript,
			PostScript: orig.PostScript,
			Done:       e.state[name].state == NodeDone,
		}
		if err := rescue.AddNode(n); err != nil {
			return err
		}
	}
	for _, name := range e.dag.Order {
		for _, c := range e.dag.Nodes[name].Children {
			if err := rescue.AddEdge(name, c); err != nil {
				return err
			}
		}
	}
	for c, v := range e.dag.MaxJobs {
		rescue.MaxJobs[c] = v
	}
	return rescue.Write(w)
}
