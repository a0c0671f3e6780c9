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
// builds the node's phase jobs from its workflow config; tests supply
// synthetic jobs. A factory error fails the node.
type JobFactory func(n *Node) ([]*htcondor.Job, error)

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

	state    map[string]*nodeRun
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

	met *execMetrics // node-lifecycle metric handles; nil when obs is off

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
	}
	for _, nodeName := range d.Order {
		e.state[nodeName] = &nodeRun{node: d.Nodes[nodeName]}
	}
	schedd.Subscribe(e.onJobEvent)
	return e, nil
}

// execMetrics caches the executor's metric handles so the node-lifecycle
// hot path skips the registry's name+label map lookups. The per-node
// retry counters are keyed by node name and filled on first use.
type execMetrics struct {
	reg *obs.Registry

	running, done, failed, pending          *obs.Gauge
	submissions, retries, failures, rescues *obs.Counter
	retryBackoff                            *obs.Histogram
	nodeRetries                             map[string]*obs.Counter
}

// SetObs attaches a metrics registry for node-lifecycle metrics
// (ready/running/done counts, retries, rescue writes); nil turns them
// off. Instrument handles are resolved once here rather than per
// event. Purely passive: scheduling decisions never consult it.
func (e *Executor) SetObs(r *obs.Registry) {
	if r == nil {
		e.met = nil
		return
	}
	e.met = &execMetrics{
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

// nodeRetry returns the per-node retry counter, resolving it once.
func (m *execMetrics) nodeRetry(dag, node string) *obs.Counter {
	c, ok := m.nodeRetries[node]
	if !ok {
		//lint:allow seamguard SetObs builds an execMetrics only around a non-nil registry
		c = m.reg.Counter("fdw_dagman_node_retries_total", "dag", dag, "node", node)
		m.nodeRetries[node] = c
	}
	return c
}

// nodeGauges refreshes the node-progress gauges.
func (e *Executor) nodeGauges() {
	m := e.met
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

// dispatchReady submits every waiting node whose parents are done, in
// declaration order.
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
		e.submitNode(nr)
	}
}

func (e *Executor) submitNode(nr *nodeRun) {
	nr.attempts++
	jobs, err := e.factory(nr.node)
	if err != nil || len(jobs) == 0 {
		e.failNode(nr)
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
	if m := e.met; m != nil {
		m.submissions.Inc()
		e.nodeGauges()
	}
}

// failNode handles a failed attempt (counted by submitNode): it
// retries the node if budget remains, else fails it.
func (e *Executor) failNode(nr *nodeRun) {
	if nr.attempts <= nr.node.Retry {
		// Retry: requeue the node as ready rather than resubmitting
		// directly, so the attempt goes back through dispatchReady in
		// declaration order like any other dispatch.
		nr.retries++
		if m := e.met; m != nil {
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
			// elapses, then requeue through dispatchReady. A held node
			// still counts as dispatchable, so checkComplete keeps the
			// DAG alive until the timer fires.
			nr.held = true
			if m := e.met; m != nil {
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
	if m := e.met; m != nil {
		m.failures.Inc()
		e.nodeGauges()
	}
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
	if m := e.met; m != nil {
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
			Retry:      orig.Retry,
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
	return rescue.Write(w)
}
