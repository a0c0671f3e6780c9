// Package dagman reimplements the part of HTCondor's DAGMan workflow
// engine FDW uses: DAG-description files (JOB [DONE] / PARENT..CHILD /
// RETRY), an executor that submits node jobs to a schedd as their
// dependencies resolve, retries, and rescue-DAG generation. FDW is
// three such nodes (phases A, B, C) fanned out over thousands of jobs;
// the submission throttle is the schedd's MaxIdleSubmit.
package dagman

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Node is one DAG vertex.
type Node struct {
	Name       string
	SubmitFile string // referenced submit-description name
	Parents    []string
	Children   []string
	Retry      int  // extra attempts after a failure
	Done       bool // pre-marked DONE (rescue DAGs)
}

// DAG is a parsed workflow graph.
type DAG struct {
	Nodes    map[string]*Node
	Order    []string // declaration order
	Comments []string
}

// NewDAG returns an empty DAG.
func NewDAG() *DAG {
	return &DAG{Nodes: map[string]*Node{}}
}

// AddNode inserts a node. Duplicate names are an error, and so is any
// node Write could not render back into a file Parse reads: a name or
// submit file that is empty or holds whitespace, or a node named
// PARENT or CHILD (in any case).
func (d *DAG) AddNode(n *Node) error {
	if err := d.addNode(n); err != nil {
		return fmt.Errorf("dagman: %w", err)
	}
	return nil
}

// AddEdge records parent → child.
func (d *DAG) AddEdge(parent, child string) error {
	if err := d.addEdge(parent, child); err != nil {
		return fmt.Errorf("dagman: %w", err)
	}
	return nil
}

// addNode is AddNode without the package prefix, which Parse replaces
// with its line number.
func (d *DAG) addNode(n *Node) error {
	switch {
	case n.Name == "":
		return fmt.Errorf("node with empty name")
	case strings.IndexFunc(n.Name, unicode.IsSpace) >= 0:
		return fmt.Errorf("node %q: name holds whitespace", n.Name)
	case strings.EqualFold(n.Name, "PARENT") || strings.EqualFold(n.Name, "CHILD"):
		return fmt.Errorf("node %q: name is a DAG keyword", n.Name)
	case n.SubmitFile == "" || strings.IndexFunc(n.SubmitFile, unicode.IsSpace) >= 0:
		return fmt.Errorf("node %q: submit file %q is empty or holds whitespace", n.Name, n.SubmitFile)
	}
	if _, dup := d.Nodes[n.Name]; dup {
		return fmt.Errorf("duplicate node %q", n.Name)
	}
	d.Nodes[n.Name] = n
	d.Order = append(d.Order, n.Name)
	return nil
}

// addEdge is AddEdge without the package prefix.
func (d *DAG) addEdge(parent, child string) error {
	p, ok := d.Nodes[parent]
	if !ok {
		return fmt.Errorf("unknown parent %q", parent)
	}
	c, ok := d.Nodes[child]
	if !ok {
		return fmt.Errorf("unknown child %q", child)
	}
	if parent == child {
		return fmt.Errorf("self edge on %q", parent)
	}
	p.Children = append(p.Children, child)
	c.Parents = append(c.Parents, parent)
	return nil
}

// Validate checks referential integrity and acyclicity.
func (d *DAG) Validate() error {
	if len(d.Nodes) == 0 {
		return fmt.Errorf("dagman: empty DAG")
	}
	// Kahn's algorithm for cycle detection.
	indeg := map[string]int{}
	for name, n := range d.Nodes {
		indeg[name] = len(n.Parents)
	}
	var ready []string
	for name, deg := range indeg {
		if deg == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	seen := 0
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		seen++
		for _, c := range d.Nodes[name].Children {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if seen != len(d.Nodes) {
		return fmt.Errorf("dagman: cycle detected (%d of %d nodes orderable)", seen, len(d.Nodes))
	}
	return nil
}

// Parse reads DAGMan file syntax.
//
//lint:allow deadexport DAG file reader; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func Parse(r io.Reader) (*DAG, error) {
	d := NewDAG()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows on demand up to a 1 MiB line
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			d.Comments = append(d.Comments, strings.TrimSpace(line[1:]))
			continue
		}
		fields := strings.Fields(line)
		cmd := strings.ToUpper(fields[0])
		fail := func(format string, args ...any) error {
			return fmt.Errorf("dagman: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch cmd {
		case "JOB":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, fail("JOB needs name, submit file and optional DONE")
			}
			n := &Node{Name: fields[1], SubmitFile: fields[2]}
			if len(fields) == 4 {
				if !strings.EqualFold(fields[3], "DONE") {
					return nil, fail("JOB %s: %q is not DONE", fields[1], fields[3])
				}
				n.Done = true
			}
			if err := d.addNode(n); err != nil {
				return nil, fail("%v", err)
			}
		case "PARENT":
			idx := -1
			for i, f := range fields {
				if strings.EqualFold(f, "CHILD") {
					idx = i
					break
				}
			}
			if idx < 2 || idx == len(fields)-1 {
				return nil, fail("PARENT ... CHILD ... malformed")
			}
			for _, p := range fields[1:idx] {
				for _, c := range fields[idx+1:] {
					if err := d.addEdge(p, c); err != nil {
						return nil, fail("%v", err)
					}
				}
			}
		case "RETRY":
			if len(fields) != 3 {
				return nil, fail("RETRY needs node and count")
			}
			n, ok := d.Nodes[fields[1]]
			if !ok {
				return nil, fail("RETRY for unknown node %q", fields[1])
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil || v < 0 {
				return nil, fail("bad RETRY count %q", fields[2])
			}
			n.Retry = v
		default:
			return nil, fail("unknown command %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dagman: line %d: %w", lineNo+1, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Write renders the DAG back to DAGMan syntax.
func (d *DAG) Write(w io.Writer) error {
	for _, c := range d.Comments {
		if _, err := fmt.Fprintf(w, "# %s\n", c); err != nil {
			return err
		}
	}
	for _, name := range d.Order {
		n := d.Nodes[name]
		suffix := ""
		if n.Done {
			suffix = " DONE"
		}
		if _, err := fmt.Fprintf(w, "JOB %s %s%s\n", n.Name, n.SubmitFile, suffix); err != nil {
			return err
		}
		if n.Retry > 0 {
			if _, err := fmt.Fprintf(w, "RETRY %s %d\n", n.Name, n.Retry); err != nil {
				return err
			}
		}
	}
	for _, name := range d.Order {
		n := d.Nodes[name]
		if len(n.Children) > 0 {
			if _, err := fmt.Fprintf(w, "PARENT %s CHILD %s\n", n.Name, strings.Join(n.Children, " ")); err != nil {
				return err
			}
		}
	}
	return nil
}
