package obs

import "fdw/internal/sim"

// Test-only readers of single instruments; production reads go
// through Snapshot.

// Now returns the registry's current simulated time (0 for a nil
// registry or nil clock).
func (r *Registry) Now() sim.Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nowLocked()
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil || c.r == nil {
		return 0
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.v
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil || g.r == nil {
		return 0
	}
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.v
}

// At returns the sim.Time of the last Set/Add.
func (g *Gauge) At() sim.Time {
	if g == nil || g.r == nil {
		return 0
	}
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.at
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil || h.r == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil || h.r == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-th quantile (0..1) by linear interpolation
// within the bucket containing it, clamped to the observed [min, max].
// It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.r == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.quantileLocked(q)
}

// Events returns a copy of the span's stage events.
func (s *Span) Events() []SpanEvent {
	if s == nil || s.r == nil {
		return nil
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	out := make([]SpanEvent, len(s.events))
	copy(out, s.events)
	return out
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil || s.r == nil {
		return false
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.ended
}

// Status returns the terminal status ("" while open).
func (s *Span) Status() string {
	if s == nil || s.r == nil {
		return ""
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	return s.status
}

// DurationSeconds returns end-start for ended spans, else 0.
func (s *Span) DurationSeconds() float64 {
	if s == nil || s.r == nil {
		return 0
	}
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if !s.ended {
		return 0
	}
	return float64(s.end - s.start)
}

// SpanCount returns the number of retained spans.
func (r *Registry) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// SpansDropped returns how many spans were discarded past the limit.
func (r *Registry) SpansDropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spansDropped
}
