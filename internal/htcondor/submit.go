package htcondor

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fdw/internal/classad"
)

// SubmitFile is a parsed HTCondor submit-description file: an ordered
// set of commands plus a queue count. FDW generates one submit file per
// workflow phase.
type SubmitFile struct {
	Commands map[string]string // lower-cased keys
	Plus     map[string]string // +Attr custom attributes, original case
	QueueN   int
}

// ParseSubmit reads submit-description syntax: "key = value" lines,
// "+Attr = expr" custom attributes, comments (#), and a final
// "queue [N]" statement. Continuation lines end with a backslash.
//
//lint:allow deadexport submit file reader; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func ParseSubmit(r io.Reader) (*SubmitFile, error) {
	sf := &SubmitFile{
		Commands: map[string]string{},
		Plus:     map[string]string{},
		QueueN:   0,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	var pending string
	sawQueue := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if pending != "" {
			line = pending + line
			pending = ""
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending = strings.TrimSuffix(line, "\\")
			continue
		}
		lower := strings.ToLower(line)
		if lower == "queue" || strings.HasPrefix(lower, "queue ") {
			if sawQueue {
				return nil, fmt.Errorf("htcondor: line %d: multiple queue statements", lineNo)
			}
			sawQueue = true
			n := 1
			if rest := strings.TrimSpace(line[len("queue"):]); rest != "" {
				v, err := strconv.Atoi(rest)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("htcondor: line %d: bad queue count %q", lineNo, rest)
				}
				n = v
			}
			sf.QueueN = n
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("htcondor: line %d: expected key = value, got %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("htcondor: line %d: empty key", lineNo)
		}
		if strings.HasPrefix(key, "+") {
			sf.Plus[key[1:]] = val
		} else {
			sf.Commands[strings.ToLower(key)] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pending != "" {
		return nil, fmt.Errorf("htcondor: dangling continuation line")
	}
	if !sawQueue {
		return nil, fmt.Errorf("htcondor: missing queue statement")
	}
	return sf, nil
}

// expandMacros substitutes $(Process) and $(Cluster) (case-insensitive).
func expandMacros(s string, cluster, proc int) string {
	rep := strings.NewReplacer(
		"$(Process)", strconv.Itoa(proc),
		"$(process)", strconv.Itoa(proc),
		"$(PROCESS)", strconv.Itoa(proc),
		"$(Cluster)", strconv.Itoa(cluster),
		"$(cluster)", strconv.Itoa(cluster),
		"$(CLUSTER)", strconv.Itoa(cluster),
	)
	return rep.Replace(s)
}

// parseSizeMB parses HTCondor memory/disk request values: a bare number
// is MB, with optional KB/MB/GB suffix.
func parseSizeMB(s string) (int, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "KB"):
		mult = 1.0 / 1024
		s = strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "MB"):
		s = strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "GB"):
		mult = 1024
		s = strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "K"):
		mult = 1.0 / 1024
		s = strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult = 1024
		s = strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("htcondor: bad size %q", s)
	}
	return int(v * mult), nil
}

// Materialize expands the submit file into QueueN jobs for the given
// cluster id and owner. BaseExecSeconds and transfer sizes come from
// the +FDW* attributes when present (the FDW work model sets them).
//
//lint:allow deadexport submit file to jobs; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func (sf *SubmitFile) Materialize(cluster int, owner string) ([]*Job, error) {
	jobs := make([]*Job, 0, sf.QueueN)
	cpus := 1
	if v, ok := sf.Commands["request_cpus"]; ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("htcondor: bad request_cpus %q", v)
		}
		cpus = n
	}
	memMB := 1024
	if v, ok := sf.Commands["request_memory"]; ok {
		m, err := parseSizeMB(v)
		if err != nil {
			return nil, err
		}
		memMB = m
	}
	diskMB := 1024
	if v, ok := sf.Commands["request_disk"]; ok {
		d, err := parseSizeMB(v)
		if err != nil {
			return nil, err
		}
		diskMB = d
	}
	for proc := 0; proc < sf.QueueN; proc++ {
		j := &Job{
			Cluster:         cluster,
			Proc:            proc,
			Owner:           owner,
			Executable:      expandMacros(sf.Commands["executable"], cluster, proc),
			Arguments:       expandMacros(sf.Commands["arguments"], cluster, proc),
			RequestCpus:     cpus,
			RequestMemoryMB: memMB,
			RequestDiskMB:   diskMB,
			Requirements:    sf.Commands["requirements"],
			Attrs:           classad.Ad{},
			Status:          Idle,
		}
		for k, raw := range sf.Plus {
			expr, err := classad.Parse(expandMacros(raw, cluster, proc))
			if err != nil {
				return nil, fmt.Errorf("htcondor: +%s: %w", k, err)
			}
			j.Attrs[k] = expr.Eval(nil, nil)
		}
		if v, ok := j.Attrs.Lookup("FDWExecSeconds"); ok {
			if f, defined := v.AsNumber(); defined {
				j.BaseExecSeconds = f
			}
		}
		if v, ok := j.Attrs.Lookup("FDWInputBytes"); ok {
			if f, defined := v.AsNumber(); defined {
				j.InputBytes = int64(f)
			}
		}
		if v, ok := j.Attrs.Lookup("FDWOutputBytes"); ok {
			if f, defined := v.AsNumber(); defined {
				j.OutputBytes = int64(f)
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// Write renders the submit description in the syntax ParseSubmit
// accepts, commands first (sorted), then +attributes, then queue.
func (sf *SubmitFile) Write(w io.Writer) error {
	keys := make([]string, 0, len(sf.Commands))
	for k := range sf.Commands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s = %s\n", k, sf.Commands[k]); err != nil {
			return err
		}
	}
	plus := make([]string, 0, len(sf.Plus))
	for k := range sf.Plus {
		plus = append(plus, k)
	}
	sort.Strings(plus)
	for _, k := range plus {
		if _, err := fmt.Fprintf(w, "+%s = %s\n", k, sf.Plus[k]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "queue %d\n", sf.QueueN)
	return err
}
