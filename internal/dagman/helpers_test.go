package dagman

// Test-only views of DAG and executor state.

// Roots returns nodes with no parents, in declaration order.
func (d *DAG) Roots() []*Node {
	var out []*Node
	for _, name := range d.Order {
		if n := d.Nodes[name]; len(n.Parents) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// NodeStates returns a copy of each node's current state.
func (e *Executor) NodeStates() map[string]NodeState {
	out := make(map[string]NodeState, len(e.state))
	for name, nr := range e.state {
		out[name] = nr.state
	}
	return out
}

// NodeRetries returns, per node, how many failed attempts were requeued
// under the RETRY budget (the counterpart of the
// fdw_dagman_node_retries_total metric, available with obs off).
func (e *Executor) NodeRetries() map[string]int {
	out := make(map[string]int, len(e.state))
	for name, nr := range e.state {
		out[name] = nr.retries
	}
	return out
}
