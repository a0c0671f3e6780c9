package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is simulated time measured in seconds since the start of a run.
// float64 seconds keep the arithmetic simple for throughput formulas
// (jobs/minute) while giving sub-second resolution for the per-second
// bursting loop.
type Time float64

// Duration converts t to a time.Duration for formatting.
func (t Time) Duration() time.Duration {
	return time.Duration(float64(t) * float64(time.Second))
}

// String formats t as "12h34m56s"-style simulated wall time.
func (t Time) String() string { return t.Duration().Round(time.Second).String() }

// Forever is a sentinel time far beyond any experiment horizon.
const Forever Time = math.MaxFloat64 / 4

// Event is a scheduled callback on the simulation calendar.
type Event struct {
	at     Time
	seq    uint64 // tie-break: FIFO among equal timestamps
	fn     func()
	k      *Kernel
	cancel bool
	index  int // heap index, -1 once popped
}

// Cancel marks the event so its callback will not run. Safe to call
// multiple times and after the event has fired (then it is a no-op).
// A cancelled event still on the calendar becomes a tombstone; the
// kernel reaps tombstones in bulk once they outnumber live events, so
// heap size and memory stay proportional to live events even under
// heavy timer churn (deadline timers, hedges, tickers).
func (e *Event) Cancel() {
	if e == nil || e.cancel {
		return
	}
	e.cancel = true
	if e.index >= 0 && e.k != nil {
		e.k.cancelled++
		e.k.maybeReap()
	}
}

// calendar is the kernel's event queue: a binary min-heap over
// (at, seq) with the same sift algorithms as container/heap, typed so
// each comparison and move is a direct call rather than an interface
// call. Every move keeps the moved event's index current, so Cancel
// can tell a queued event (index >= 0) from a fired one (-1). The
// container/heap version it replaced is kept in kernel_test.go as the
// reference the property test compares fire orders against.
type calendar []*Event

// before is the calendar order: earlier time first, then FIFO.
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// up sifts the event at j towards the root.
func (h calendar) up(j int) {
	e := h[j]
	for j > 0 {
		i := (j - 1) / 2 // parent
		p := h[i]
		if !e.before(p) {
			break
		}
		h[j] = p
		p.index = j
		j = i
	}
	h[j] = e
	e.index = j
}

// down sifts the event at i towards the leaves of h[:n].
func (h calendar) down(i, n int) {
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n || c < 0 { // c < 0 after int overflow
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

func (h *calendar) push(e *Event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event; h must be non-empty.
func (h *calendar) pop() *Event {
	old := *h
	n := len(old) - 1
	top := old[0]
	if n > 0 {
		old[0] = old[n]
		old.down(0, n)
	}
	old[n] = nil
	*h = old[:n]
	top.index = -1
	return top
}

// init establishes the heap order over arbitrary contents.
func (h calendar) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

// Kernel is a discrete-event simulator: a clock plus an ordered calendar
// of future events. It is single-goroutine by design; determinism comes
// from the (time, insertion-order) total order of events.
type Kernel struct {
	now    Time
	events calendar
	seq    uint64
	rng    *RNG
	// cancelled counts tombstones still on the calendar; maybeReap
	// compacts the heap when they dominate.
	cancelled int
}

// NewKernel returns a kernel at time zero with a deterministic RNG.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's root random stream.
func (k *Kernel) RNG() *RNG { return k.rng }

// reapMinEvents is the heap size below which tombstone reaping is not
// worth the compaction pass.
const reapMinEvents = 64

// maybeReap compacts the calendar when cancelled tombstones exceed
// half the heap: live events are kept (their relative execution order
// is fully determined by the (at, seq) key, so re-heapifying cannot
// reorder anything observable) and the dead ones are dropped.
func (k *Kernel) maybeReap() {
	if len(k.events) < reapMinEvents || k.cancelled*2 <= len(k.events) {
		return
	}
	live := k.events[:0]
	for _, e := range k.events {
		if e.cancel {
			e.index = -1
			continue
		}
		live = append(live, e)
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = nil
	}
	k.events = live
	k.cancelled = 0
	k.events.init()
}

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it would silently corrupt causality.
func (k *Kernel) At(at Time, fn func()) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	e := &Event{at: at, seq: k.seq, fn: fn, k: k}
	k.seq++
	k.events.push(e)
	return e
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (k *Kernel) After(d Time, fn func()) *Event {
	return k.At(k.now+d, fn)
}

// Step executes the next event. It reports false when the calendar is
// empty. Cancelled events are skipped (but still consume a pop).
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		e := k.events.pop()
		if e.cancel {
			k.cancelled--
			continue
		}
		k.now = e.at
		e.fn()
		return true
	}
	return false
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to deadline (if the calendar ran dry earlier).
//
//lint:allow deadexport kernel runner that ospool tests call
func (k *Kernel) RunUntil(deadline Time) {
	for len(k.events) > 0 {
		// Peek without popping.
		e := k.events[0]
		if e.cancel {
			k.events.pop()
			k.cancelled--
			continue
		}
		if e.at > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// Ticker invokes fn(now) every period seconds starting at start, until
// the returned stop function is called. fn returning is what re-arms the
// next tick, so a slow consumer cannot stack ticks.
func (k *Kernel) Ticker(start, period Time, fn func(Time)) (stop func()) {
	if period <= 0 {
		panic("sim: Ticker with non-positive period")
	}
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		fn(k.now)
		if !stopped {
			pending = k.After(period, tick)
		}
	}
	pending = k.At(start, tick)
	return func() {
		stopped = true
		pending.Cancel()
	}
}
