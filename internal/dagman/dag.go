// Package dagman reimplements HTCondor's DAGMan workflow engine:
// DAG-description files (JOB / PARENT..CHILD / VARS / RETRY / CATEGORY
// / MAXJOBS), an executor that submits node jobs to a schedd as their
// dependencies resolve, per-category throttles, retries, and rescue-DAG
// generation. FDW is three such nodes (phases A, B, C) fanned out over
// thousands of jobs.
package dagman

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Node is one DAG vertex.
type Node struct {
	Name       string
	SubmitFile string            // referenced submit-description name
	Vars       map[string]string // VARS key/value macros
	Parents    []string
	Children   []string
	Retry      int    // extra attempts after a failure
	Category   string // throttling category ("" = none)
	Done       bool   // pre-marked DONE (rescue DAGs)
	PreScript  string // SCRIPT PRE command line ("" = none)
	PostScript string // SCRIPT POST command line ("" = none)
}

// DAG is a parsed workflow graph.
type DAG struct {
	Nodes    map[string]*Node
	Order    []string       // declaration order
	MaxJobs  map[string]int // category → max concurrently active nodes
	Comments []string
}

// NewDAG returns an empty DAG.
func NewDAG() *DAG {
	return &DAG{Nodes: map[string]*Node{}, MaxJobs: map[string]int{}}
}

// AddNode inserts a node; duplicate names are an error.
func (d *DAG) AddNode(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("dagman: node with empty name")
	}
	if _, dup := d.Nodes[n.Name]; dup {
		return fmt.Errorf("dagman: duplicate node %q", n.Name)
	}
	if n.Vars == nil {
		n.Vars = map[string]string{}
	}
	d.Nodes[n.Name] = n
	d.Order = append(d.Order, n.Name)
	return nil
}

// AddEdge records parent → child.
func (d *DAG) AddEdge(parent, child string) error {
	p, ok := d.Nodes[parent]
	if !ok {
		return fmt.Errorf("dagman: unknown parent %q", parent)
	}
	c, ok := d.Nodes[child]
	if !ok {
		return fmt.Errorf("dagman: unknown child %q", child)
	}
	if parent == child {
		return fmt.Errorf("dagman: self edge on %q", parent)
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
			if len(fields) < 3 {
				return nil, fail("JOB needs name and submit file")
			}
			n := &Node{Name: fields[1], SubmitFile: fields[2], Vars: map[string]string{}}
			if len(fields) == 4 && strings.EqualFold(fields[3], "DONE") {
				n.Done = true
			}
			if err := d.AddNode(n); err != nil {
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
					if err := d.AddEdge(p, c); err != nil {
						return nil, fail("%v", err)
					}
				}
			}
		case "VARS":
			if len(fields) < 3 {
				return nil, fail("VARS needs node and assignments")
			}
			n, ok := d.Nodes[fields[1]]
			if !ok {
				return nil, fail("VARS for unknown node %q", fields[1])
			}
			rest := strings.TrimSpace(line[strings.Index(line, fields[1])+len(fields[1]):])
			if err := parseVars(n, rest); err != nil {
				return nil, fail("%v", err)
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
		case "CATEGORY":
			if len(fields) != 3 {
				return nil, fail("CATEGORY needs node and name")
			}
			n, ok := d.Nodes[fields[1]]
			if !ok {
				return nil, fail("CATEGORY for unknown node %q", fields[1])
			}
			n.Category = fields[2]
		case "SCRIPT":
			if len(fields) < 4 {
				return nil, fail("SCRIPT needs PRE|POST, node, and command")
			}
			n, ok := d.Nodes[fields[2]]
			if !ok {
				return nil, fail("SCRIPT for unknown node %q", fields[2])
			}
			cmdline := strings.Join(fields[3:], " ")
			switch strings.ToUpper(fields[1]) {
			case "PRE":
				n.PreScript = cmdline
			case "POST":
				n.PostScript = cmdline
			default:
				return nil, fail("SCRIPT kind %q must be PRE or POST", fields[1])
			}
		case "MAXJOBS":
			if len(fields) != 3 {
				return nil, fail("MAXJOBS needs category and limit")
			}
			v, err := strconv.Atoi(fields[2])
			if err != nil || v <= 0 {
				return nil, fail("bad MAXJOBS limit %q", fields[2])
			}
			d.MaxJobs[fields[1]] = v
		default:
			return nil, fail("unknown command %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// parseVars handles `key="value" key2="value2"` assignments.
func parseVars(n *Node, s string) error {
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return fmt.Errorf("malformed VARS near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := strings.TrimSpace(s[eq+1:])
		if !strings.HasPrefix(rest, `"`) {
			return fmt.Errorf("VARS value for %q must be quoted", key)
		}
		end := strings.Index(rest[1:], `"`)
		if end < 0 {
			return fmt.Errorf("unterminated VARS value for %q", key)
		}
		n.Vars[key] = rest[1 : 1+end]
		s = rest[end+2:]
	}
	return nil
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
		if len(n.Vars) > 0 {
			keys := make([]string, 0, len(n.Vars))
			for k := range n.Vars {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, len(keys))
			for i, k := range keys {
				parts[i] = fmt.Sprintf("%s=%q", k, n.Vars[k])
			}
			if _, err := fmt.Fprintf(w, "VARS %s %s\n", n.Name, strings.Join(parts, " ")); err != nil {
				return err
			}
		}
		if n.Retry > 0 {
			if _, err := fmt.Fprintf(w, "RETRY %s %d\n", n.Name, n.Retry); err != nil {
				return err
			}
		}
		if n.Category != "" {
			if _, err := fmt.Fprintf(w, "CATEGORY %s %s\n", n.Name, n.Category); err != nil {
				return err
			}
		}
		if n.PreScript != "" {
			if _, err := fmt.Fprintf(w, "SCRIPT PRE %s %s\n", n.Name, n.PreScript); err != nil {
				return err
			}
		}
		if n.PostScript != "" {
			if _, err := fmt.Fprintf(w, "SCRIPT POST %s %s\n", n.Name, n.PostScript); err != nil {
				return err
			}
		}
	}
	cats := make([]string, 0, len(d.MaxJobs))
	for c := range d.MaxJobs {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		if _, err := fmt.Fprintf(w, "MAXJOBS %s %d\n", c, d.MaxJobs[c]); err != nil {
			return err
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
