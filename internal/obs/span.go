package obs

import "fdw/internal/sim"

// Span is one job's lifecycle trace: a start time, a sequence of named
// stage events (submit → match → input transfer → execute →
// complete/evict), and a terminal status. Spans are append-only and
// timestamped by the registry's simulation clock unless an explicit
// time is supplied.
type Span struct {
	r    *Registry
	kind string
	id   string

	start  sim.Time
	end    sim.Time
	status string
	ended  bool
	events []SpanEvent
}

// SpanEvent is one stage marker inside a span. Value carries an
// optional stage measurement (e.g. input-transfer seconds); NaN-free
// zero means "no value".
type SpanEvent struct {
	Name  string   `json:"name"`
	At    sim.Time `json:"at"`
	Value float64  `json:"value,omitempty"`
}

// StartSpan opens a span of the given kind and identity, stamped with
// the current simulated time. Spans need a clock: on a nil or unclocked
// registry, or past the span retention limit (tallied in
// Snapshot.SpansDropped), it returns nil without allocating; every
// method of a nil span is a no-op.
func (r *Registry) StartSpan(kind, id string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.clock == nil {
		return nil
	}
	if len(r.spans) >= SpanLimit {
		r.spansDropped++
		return nil
	}
	s := &Span{r: r, kind: kind, id: id, start: r.clock()}
	r.spans = append(r.spans, s)
	return s
}

// RecordsSpans reports whether the registry is non-nil and clocked;
// callers that pay to build a span's identity check it first.
func (r *Registry) RecordsSpans() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock != nil
}

// Annotate appends a stage event at the current simulated time.
func (s *Span) Annotate(name string) {
	if s == nil || s.r == nil {
		return
	}
	s.r.mu.Lock()
	s.events = append(s.events, SpanEvent{Name: name, At: s.r.nowLocked()})
	s.r.mu.Unlock()
}

// AnnotateAt appends a stage event with an explicit timestamp and
// optional measurement (the transfer model knows stage durations ahead
// of the completion event, so at may lie in the simulated future).
func (s *Span) AnnotateAt(name string, at sim.Time, value float64) {
	if s == nil || s.r == nil {
		return
	}
	s.r.mu.Lock()
	s.events = append(s.events, SpanEvent{Name: name, At: at, Value: value})
	s.r.mu.Unlock()
}

// End closes the span with a terminal status at the current simulated
// time. Ending twice keeps the first closure.
func (s *Span) End(status string) {
	if s == nil || s.r == nil {
		return
	}
	s.r.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = s.r.nowLocked()
		s.status = status
	}
	s.r.mu.Unlock()
}
