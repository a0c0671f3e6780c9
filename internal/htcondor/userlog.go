package htcondor

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"fdw/internal/sim"
)

// EventType is an HTCondor user-log event code.
type EventType int

// User-log event codes (HTCondor's numbering).
const (
	EventSubmit     EventType = 0  // 000 Job submitted
	EventExecute    EventType = 1  // 001 Job executing
	EventEvicted    EventType = 4  // 004 Job evicted
	EventTerminated EventType = 5  // 005 Job terminated
	EventAborted    EventType = 9  // 009 Job aborted (removed)
	EventHeld       EventType = 12 // 012 Job held
	EventReleased   EventType = 13 // 013 Job released
)

func (e EventType) String() string {
	switch e {
	case EventSubmit:
		return "Job submitted from host"
	case EventExecute:
		return "Job executing on host"
	case EventEvicted:
		return "Job was evicted"
	case EventTerminated:
		return "Job terminated"
	case EventAborted:
		return "Job was aborted by the user"
	case EventHeld:
		return "Job was held"
	case EventReleased:
		return "Job was released"
	default:
		return fmt.Sprintf("Event %03d", int(e))
	}
}

// logEpoch anchors simulated second 0 to a concrete wall-clock date so
// that log lines look like real HTCondor logs (the experiments ran
// around SC23).
var logEpoch = time.Date(2023, time.November, 12, 0, 0, 0, 0, time.UTC)

// JobEvent is one parsed user-log event.
type JobEvent struct {
	Type    EventType
	Cluster int
	Proc    int
	At      sim.Time // seconds since logEpoch
	Host    string
}

// UserLog accumulates HTCondor-format event-log text. FDW's monitoring
// parses this text (the paper: "Shell scripts parse HTCondor log files
// to extract information (e.g., runtime, wait times, ...)").
//
// Text output is buffered: Append formats into an internal buffer that
// is written out once it passes userLogFlushBytes, so a million-event
// run issues kilobyte-scale writes instead of one syscall per event.
// Call Flush (or run through Pool.RunUntilDone / core.RunBatch, which
// flush on completion) before reading the underlying writer. As with
// bufio.Writer, the first write error sticks: no later text is
// written, and every later Append and Flush returns that error, so a
// failure mid-run surfaces at the final flush.
//
// The log is a text sink only: it keeps no events in memory, so a log
// without a writer costs nothing per event. In-process consumers that
// need event times observe them through Schedd.Subscribe, which sees
// the exact fractional sim.Time; the text prints whole seconds.
type UserLog struct {
	w   io.Writer
	buf []byte
	err error // first write error
}

// userLogFlushBytes is the buffered-text threshold that triggers a
// write to the underlying writer.
const userLogFlushBytes = 64 * 1024

// NewUserLog writes formatted events to w. A nil w discards every
// event.
func NewUserLog(w io.Writer) *UserLog { return &UserLog{w: w} }

// Append buffers an event's textual form, flushing to the underlying
// writer when the buffer is full.
func (l *UserLog) Append(ev JobEvent) error {
	if l.w == nil || l.err != nil {
		return l.err
	}
	l.buf = appendEventText(l.buf, ev)
	if len(l.buf) >= userLogFlushBytes {
		return l.Flush()
	}
	return nil
}

// Flush writes any buffered event text to the underlying writer. On
// a failed or short write the unwritten text stays buffered and the
// error sticks.
func (l *UserLog) Flush() error {
	if l.w == nil || l.err != nil || len(l.buf) == 0 {
		return l.err
	}
	n, err := l.w.Write(l.buf)
	if err == nil && n < len(l.buf) {
		err = io.ErrShortWrite
	}
	l.buf = l.buf[:copy(l.buf, l.buf[n:])]
	l.err = err
	return err
}

// appendEventText appends one event in HTCondor user-log syntax to b,
// without a fmt.Sprintf round trip — the userlog hot path:
//
//	005 (1234.000.000) 2023-11-12 03:14:15 Job terminated.
//	...
func appendEventText(b []byte, ev JobEvent) []byte {
	b = appendZeroPad(b, int(ev.Type), 3)
	b = append(b, " ("...)
	b = appendZeroPad(b, ev.Cluster, 4)
	b = append(b, '.')
	b = appendZeroPad(b, ev.Proc, 3)
	b = append(b, ".000) "...)
	b = logEpoch.Add(ev.At.Duration()).AppendFormat(b, "2006-01-02 15:04:05")
	b = append(b, ' ')
	b = append(b, ev.Type.String()...)
	switch ev.Type {
	case EventSubmit, EventExecute:
		b = append(b, ": <"...)
		b = append(b, ev.Host...)
		b = append(b, '>')
	}
	return append(b, "\n...\n"...)
}

// appendZeroPad appends v zero-padded to width digits (like %0*d).
func appendZeroPad(b []byte, v, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], int64(v), 10)
	for i := len(s); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// ParseUserLog parses user-log text as UserLog writes it (a subset of real
// HTCondor logs: the "..." separator, the numeric event code, the id
// triple, and the timestamp).
func ParseUserLog(r io.Reader) ([]JobEvent, error) {
	var out []JobEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows on demand up to a 1 MiB line
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line == "..." {
			continue
		}
		ev, err := parseEventLine(line)
		if err != nil {
			return nil, fmt.Errorf("htcondor: log line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

func parseEventLine(line string) (JobEvent, error) {
	var ev JobEvent
	var cluster, proc, sub int
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return ev, fmt.Errorf("short event line %q", line)
	}
	code, err := strconv.Atoi(fields[0])
	if err != nil {
		return ev, fmt.Errorf("bad event code %q", fields[0])
	}
	if _, err := fmt.Sscanf(fields[1], "(%d.%d.%d)", &cluster, &proc, &sub); err != nil {
		return ev, fmt.Errorf("bad job id %q", fields[1])
	}
	ts, terr := time.Parse("2006-01-02 15:04:05", fields[2]+" "+fields[3])
	if terr != nil {
		return ev, fmt.Errorf("bad timestamp %q %q", fields[2], fields[3])
	}
	ev.Type = EventType(code)
	ev.Cluster = cluster
	ev.Proc = proc
	ev.At = sim.Time(ts.Sub(logEpoch).Seconds())
	if i := strings.Index(line, "<"); i >= 0 {
		if j := strings.Index(line[i:], ">"); j > 0 {
			ev.Host = line[i+1 : i+j]
		}
	}
	return ev, nil
}

// JobTimes aggregates per-job submit/start/end times out of a parsed
// event stream — the exact reduction FDW's monitoring performs.
type JobTimes struct {
	Cluster, Proc      int
	Submit, Start, End sim.Time
	HasStart, HasEnd   bool
	Evictions          int
	Aborted            bool
	ExecSecs, WaitSecs float64
}

// ReduceJobTimes folds events into per-job timing rows, ordered by
// first appearance.
func ReduceJobTimes(events []JobEvent) []*JobTimes {
	index := map[[2]int]*JobTimes{}
	var order []*JobTimes
	get := func(c, p int) *JobTimes {
		k := [2]int{c, p}
		if jt, ok := index[k]; ok {
			return jt
		}
		jt := &JobTimes{Cluster: c, Proc: p}
		index[k] = jt
		order = append(order, jt)
		return jt
	}
	for _, ev := range events {
		jt := get(ev.Cluster, ev.Proc)
		switch ev.Type {
		case EventSubmit:
			jt.Submit = ev.At
		case EventExecute:
			// The final execute event wins (after evictions the job
			// restarts; wait time is measured to the last start, which is
			// also how the paper's scripts treat re-runs).
			jt.Start = ev.At
			jt.HasStart = true
		case EventEvicted:
			jt.Evictions++
			jt.HasStart = false
		case EventTerminated:
			jt.End = ev.At
			jt.HasEnd = true
		case EventAborted:
			jt.Aborted = true
			jt.End = ev.At
		}
	}
	for _, jt := range order {
		if jt.HasStart && jt.HasEnd {
			jt.ExecSecs = float64(jt.End - jt.Start)
		}
		if jt.HasStart {
			jt.WaitSecs = float64(jt.Start - jt.Submit)
		}
	}
	return order
}
