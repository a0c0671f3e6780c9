package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel at %v, want 0", k.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if k.Now() != 5 {
		t.Fatalf("clock at %v, want 5", k.Now())
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestCancelPreventsExecution(t *testing.T) {
	k := NewKernel(1)
	ran := false
	e := k.At(1, func() { ran = true })
	e.Cancel()
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(10, func() {
		k.After(5, func() { at = k.Now() })
	})
	k.Run()
	if at != 15 {
		t.Fatalf("After fired at %v, want 15", at)
	}
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel(1)
	k.At(3, func() {})
	k.RunUntil(100)
	if k.Now() != 100 {
		t.Fatalf("clock at %v, want 100", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events pending, want 0", k.Pending())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.At(50, func() { ran = true })
	k.RunUntil(10)
	if ran {
		t.Fatal("future event ran early")
	}
	if k.Now() != 10 {
		t.Fatalf("clock at %v, want 10", k.Now())
	}
	k.Run()
	if !ran {
		t.Fatal("future event never ran")
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	stop := k.Ticker(0, 10, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 5 {
			// stop is captured below; stopping from inside the callback
			// must prevent further ticks.
		}
	})
	k.RunUntil(44)
	stop()
	k.RunUntil(200)
	want := []Time{0, 10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var stop func()
	stop = k.Ticker(0, 1, func(Time) {
		n++
		if n == 3 {
			stop()
		}
	})
	k.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestNestedSchedulingPreservesCausality(t *testing.T) {
	// A chain of events, each scheduling the next, must run serially.
	k := NewKernel(1)
	const depth = 1000
	n := 0
	var step func()
	step = func() {
		n++
		if n < depth {
			k.After(1, step)
		}
	}
	k.At(0, step)
	k.Run()
	if n != depth {
		t.Fatalf("chain ran %d deep, want %d", n, depth)
	}
	if k.Now() != Time(depth-1) {
		t.Fatalf("clock %v, want %v", k.Now(), depth-1)
	}
}

func TestPropertyEventOrderIsSorted(t *testing.T) {
	// Property: for arbitrary batches of timestamps, execution order is
	// the sorted order of the (non-negative) timestamps.
	f := func(raw []uint16) bool {
		k := NewKernel(42)
		var want []Time
		for _, r := range raw {
			at := Time(r)
			want = append(want, at)
			at2 := at
			k.At(at2, func() {})
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []Time
		for k.Step() {
			got = append(got, k.Now())
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	tt := Time(3 * 3600)
	if tt.Hours() != 3 {
		t.Fatalf("Hours = %v, want 3", tt.Hours())
	}
	if tt.Minutes() != 180 {
		t.Fatalf("Minutes = %v, want 180", tt.Minutes())
	}
	if got := Time(90).String(); got != "1m30s" {
		t.Fatalf("String = %q, want 1m30s", got)
	}
}

func TestRunWhile(t *testing.T) {
	k := NewKernel(1)
	n := 0
	for i := 0; i < 10; i++ {
		k.At(Time(i), func() { n++ })
	}
	k.RunWhile(func() bool { return n < 4 })
	if n != 4 {
		t.Fatalf("RunWhile ran %d events, want 4", n)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	root := NewRNG(1)
	s1 := root.Split(1)
	s2 := root.Split(2)
	eq := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			eq++
		}
	}
	if eq > 0 {
		t.Fatalf("split streams collided %d times in 1000 draws", eq)
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(4)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Fatalf("normal sd %v, want ~2", sd)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(30)
	}
	if mean := sum / n; math.Abs(mean-30) > 0.5 {
		t.Fatalf("exp mean %v, want ~30", mean)
	}
}

func TestTruncNormalRespectsBounds(t *testing.T) {
	r := NewRNG(6)
	for i := 0; i < 10000; i++ {
		v := r.TruncNormal(0, 100, -1, 1)
		if v < -1 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalDegenerateBounds(t *testing.T) {
	r := NewRNG(6)
	// Bounds far from the mean force the clamping fallback.
	v := r.TruncNormal(0, 0.001, 50, 60)
	if v < 50 || v > 60 {
		t.Fatalf("fallback clamp out of bounds: %v", v)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := NewRNG(12)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal non-positive: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / trials
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", frac)
	}
}

func TestCancelledEventsAreReaped(t *testing.T) {
	k := NewKernel(1)
	// Schedule many timers and cancel almost all of them, the pattern a
	// deadline/hedge-heavy pool produces. Without reaping the heap
	// retains every tombstone until its timestamp is reached.
	const n = 10000
	events := make([]*Event, 0, n)
	for i := 0; i < n; i++ {
		events = append(events, k.At(Time(1000+i), func() {}))
	}
	live := 0
	for i, e := range events {
		if i%100 == 0 {
			live++
			continue
		}
		e.Cancel()
	}
	if got := k.Pending(); got != live {
		t.Fatalf("Pending() = %d, want %d live events", got, live)
	}
	// Reaping keeps the heap proportional to live events: with 1% of
	// timers surviving, well under half the tombstones may remain.
	if got := len(k.events); got >= 2*live+reapMinEvents {
		t.Fatalf("heap holds %d entries for %d live events; tombstones not reaped", got, live)
	}
	ran := 0
	k.At(20000, func() {})
	for k.Step() {
		ran++
	}
	if ran != live+1 {
		t.Fatalf("%d events ran, want %d", ran, live+1)
	}
}

func TestCancelAfterFireIsNoOp(t *testing.T) {
	k := NewKernel(1)
	e := k.At(1, func() {})
	k.Run()
	e.Cancel() // must not corrupt the tombstone accounting
	e.Cancel()
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after empty run", k.Pending())
	}
	k.At(2, func() {})
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
}

// eventHeap is the container/heap calendar the kernel ran on before
// its typed heap, kept verbatim as the reference refKernel drives.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// refKernel is the kernel's scheduling, cancellation, reaping and
// stepping code as it stood over eventHeap. Its events carry no
// kernel pointer, so cancellation goes through refKernel.cancel.
type refKernel struct {
	now       Time
	events    eventHeap
	seq       uint64
	cancelled int
}

func (k *refKernel) at(at Time, fn func()) *Event {
	e := &Event{at: at, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.events, e)
	return e
}

func (k *refKernel) cancel(e *Event) {
	if e.cancel {
		return
	}
	e.cancel = true
	if e.index >= 0 {
		k.cancelled++
		k.maybeReap()
	}
}

func (k *refKernel) maybeReap() {
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
	heap.Init(&k.events)
}

func (k *refKernel) step() bool {
	for len(k.events) > 0 {
		e := heap.Pop(&k.events).(*Event)
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

func (k *refKernel) runUntil(deadline Time) {
	for len(k.events) > 0 {
		e := k.events[0]
		if e.cancel {
			heap.Pop(&k.events)
			k.cancelled--
			continue
		}
		if e.at > deadline {
			break
		}
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// eventQueue is what driveQueue needs of a calendar, so the same
// random operation sequence can run on Kernel and on refKernel.
type eventQueue struct {
	now      func() Time
	at       func(Time, func()) *Event
	cancel   func(*Event)
	step     func() bool
	runUntil func(Time)
	size     func() int // calendar entries, tombstones included
	pending  func() int
}

func kernelQueue(k *Kernel) eventQueue {
	return eventQueue{
		now: k.Now, at: k.At, cancel: (*Event).Cancel, step: k.Step, runUntil: k.RunUntil,
		size: func() int { return len(k.events) }, pending: k.Pending,
	}
}

func refQueue(k *refKernel) eventQueue {
	return eventQueue{
		now: func() Time { return k.now }, at: k.at, cancel: k.cancel, step: k.step, runUntil: k.runUntil,
		size:    func() int { return len(k.events) },
		pending: func() int { return len(k.events) - k.cancelled },
	}
}

// driveQueue runs a seeded random sequence of At, Cancel, Step and
// RunUntil calls on q — plus bursts of timers that are mostly
// cancelled again, so tombstone reaping runs — and returns the trace:
// every event that fires with its time, and the clock, live count and
// calendar size after each operation. Delays are small integers, so
// many events share a timestamp and the FIFO tie-break decides.
// Callbacks schedule and cancel events too, as pool callbacks do.
func driveQueue(seed uint64, q eventQueue) (trace []string, reaps int) {
	rng := NewRNG(seed)
	var evs []*Event
	var schedule func(d Time)
	schedule = func(d Time) {
		id := len(evs)
		evs = append(evs, q.at(q.now()+d, func() {
			trace = append(trace, fmt.Sprintf("fire %d @%v", id, q.now()))
			switch id % 5 {
			case 0:
				schedule(Time(rng.Intn(4)))
			case 1:
				q.cancel(evs[rng.Intn(len(evs))])
			}
		}))
	}
	cancel := func(e *Event) {
		before := q.size()
		q.cancel(e)
		if q.size() < before {
			reaps++
		}
	}
	for op := 0; op < 300; op++ {
		switch r := rng.Intn(20); {
		case r < 8:
			schedule(Time(rng.Intn(8)))
		case r < 12:
			if len(evs) > 0 {
				cancel(evs[rng.Intn(len(evs))])
			}
		case r < 15:
			q.step()
		case r < 18:
			q.runUntil(q.now() + Time(rng.Intn(6)))
		case r < 19:
			first := len(evs)
			for i := 0; i < 40; i++ {
				schedule(Time(rng.Intn(8)))
			}
			for i := first; i < len(evs); i++ {
				if rng.Intn(8) != 0 {
					cancel(evs[i])
				}
			}
		default:
			for q.step() {
			}
		}
		trace = append(trace, fmt.Sprintf("op %d now=%v pending=%d size=%d", op, q.now(), q.pending(), q.size()))
	}
	return trace, reaps
}

func TestCalendarMatchesContainerHeap(t *testing.T) {
	totalReaps := 0
	for seed := uint64(1); seed <= 200; seed++ {
		got, reaps := driveQueue(seed, kernelQueue(NewKernel(seed)))
		want, _ := driveQueue(seed, refQueue(&refKernel{}))
		totalReaps += reaps
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace diverges at entry %d: kernel %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel trace has %d entries, reference %d", seed, len(got), len(want))
		}
	}
	if totalReaps == 0 {
		t.Fatal("no sequence reaped tombstones; the reap path went untested")
	}
}

// Hours reports t in hours.
func (t Time) Hours() float64 { return float64(t) / 3600 }

// Minutes reports t in minutes.
func (t Time) Minutes() float64 { return float64(t) / 60 }

// Cancelled reports whether Cancel has been called on e.
func (e *Event) Cancelled() bool { return e != nil && e.cancel }

// RunWhile executes events while cond() holds and events remain.
func (k *Kernel) RunWhile(cond func() bool) {
	for cond() && k.Step() {
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestPolarFillMatchesNorm requires PolarFill to hand out, for every
// batch length, exactly the pairs behind a Norm loop on the same
// stream: each u·√(−2·ln s / s) equals that Norm() bit for bit, and the
// stream goes on from the same state.
func TestPolarFillMatchesNorm(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, n := range []int{0, 1, 2, 3, 7, 255, 256, 1024} {
			batch, loop := NewRNG(seed), NewRNG(seed)
			u := make([]float64, n)
			s := make([]float64, n+1)
			batch.PolarFill(u, s)
			for i := range u {
				got := u[i] * math.Sqrt(-2*math.Log(s[i])/s[i])
				if want := loop.Norm(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d, %d pairs: normal %d is %v, Norm %v", seed, n, i, got, want)
				}
			}
			if s[n] != 0 {
				t.Fatalf("seed %d: PolarFill wrote past len(u)", seed)
			}
			if got, want := batch.Uint64(), loop.Uint64(); got != want {
				t.Fatalf("seed %d, %d pairs: next Uint64 %#x, after Norm %#x", seed, n, got, want)
			}
		}
	}
}
