package obs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"fdw/internal/sim"
)

// rollup absorbs snaps, in order, into a fresh unclocked registry.
func rollup(t testing.TB, snaps ...*Snapshot) *Registry {
	t.Helper()
	r := NewRegistry(nil)
	for _, s := range snaps {
		if err := r.Absorb(s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// shardSnapshots are two "shards" of the same campaign: same metric
// names, disjoint work. The fuzz corpus starts from them too.
func shardSnapshots() (a, b *Snapshot) {
	ra := NewRegistry(nil)
	ra.Counter("cells_total", "campaign", "fig2").Add(3)
	ra.Counter("only_a_total").Inc()
	ra.Gauge("progress", "shard", "1").Set(0.5)
	ra.Histogram("cell_seconds").Observe(1)
	ra.Histogram("cell_seconds").Observe(10)

	rb := NewRegistry(nil)
	rb.Counter("cells_total", "campaign", "fig2").Add(4)
	rb.Gauge("progress", "shard", "1").Set(0.9)
	rb.Histogram("cell_seconds").Observe(100)
	return ra.Snapshot(), rb.Snapshot()
}

func TestMergeSnapshotsRollsUpShards(t *testing.T) {
	a, b := shardSnapshots()
	r := rollup(t, a, nil, b)
	if got := r.Counter("cells_total", "campaign", "fig2").Value(); got != 7 {
		t.Fatalf("summed counter = %d, want 7", got)
	}
	if got := r.Counter("only_a_total").Value(); got != 1 {
		t.Fatalf("one-sided counter = %d, want 1", got)
	}

	m := r.Snapshot()
	if len(m.Gauges) != 1 || m.Gauges[0].Value != 0.9 {
		t.Fatalf("gauges %+v, want the last absorbed sample 0.9", m.Gauges)
	}

	if len(m.Histograms) != 1 {
		t.Fatalf("%d histograms", len(m.Histograms))
	}
	h := m.Histograms[0]
	if h.Count != 3 || h.Sum != 111 {
		t.Fatalf("hist count=%d sum=%v", h.Count, h.Sum)
	}
	if h.Min != 1 || h.Max != 100 {
		t.Fatalf("hist min=%v max=%v", h.Min, h.Max)
	}
	if h.P99 < h.P50 {
		t.Fatalf("quantiles inverted: p50=%v p99=%v", h.P50, h.P99)
	}
	var total uint64
	for i, bk := range h.Buckets {
		if i > 0 && bk.Count < h.Buckets[i-1].Count {
			t.Fatalf("absorbed buckets not cumulative: %+v", h.Buckets)
		}
		total = bk.Count
	}
	if total > h.Count {
		t.Fatalf("bucket mass %d exceeds count %d", total, h.Count)
	}
}

// A rollup is indistinguishable from one registry fed the same
// samples: same buckets, min, max and count, hence the same quantiles.
// Integer samples keep the float sums exact, so the whole snapshot
// must match.
func TestAbsorbEqualsLiveRegistry(t *testing.T) {
	live := NewRegistry(nil)
	var snaps []*Snapshot
	for seed := 0; seed < 4; seed++ {
		cell := NewRegistry(nil)
		for _, r := range []*Registry{live, cell} {
			r.Counter("cells_total", "campaign", "fig2").Add(uint64(seed*3 + 1))
			r.Gauge("last_cell").Set(float64(seed))
			h := r.Histogram("cell_seconds")
			for i := 0; i < 5+seed; i++ {
				h.Observe(float64((seed + 1) * (i + 1) * 37))
			}
		}
		snaps = append(snaps, cell.Snapshot())
	}
	if got, want := rollup(t, snaps...).Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup differs from the live registry:\n%+v\nwant\n%+v", got, want)
	}
}

func TestMergeSnapshotsDeterministic(t *testing.T) {
	a := NewRegistry(nil)
	a.Counter("x_total", "k", "1").Inc()
	a.Counter("a_total").Inc()
	b := NewRegistry(nil)
	b.Counter("x_total", "k", "1").Inc()
	b.Counter("b_total").Inc()

	m1 := rollup(t, a.Snapshot(), b.Snapshot()).Snapshot()
	m2 := rollup(t, a.Snapshot(), b.Snapshot()).Snapshot()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("absorb not deterministic")
	}
	// Output is sorted by canonical key regardless of input order.
	names := []string{}
	for _, c := range rollup(t, b.Snapshot(), a.Snapshot()).Snapshot().Counters {
		names = append(names, c.Name)
	}
	want := []string{"a_total", "b_total", "x_total"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("counter order %v, want %v", names, want)
	}
}

// Counters and histogram mass commute: any permutation and any
// grouping of the absorbed snapshots yields identical counters,
// buckets, moments and quantiles. (Gauges take the last absorbed
// sample, which is why executors absorb in canonical cell order.)
func TestMergeSnapshotsOrderAndStreaming(t *testing.T) {
	mk := func(seed int) *Snapshot {
		r := NewRegistry(nil)
		r.Counter("cells_total", "campaign", "fig2").Add(uint64(seed*3 + 1))
		r.Counter("shard_total", "shard", string(rune('a'+seed))).Inc()
		h := r.Histogram("cell_seconds")
		for i := 0; i < 5+seed; i++ {
			h.Observe(float64((seed + 1) * (i + 1)))
		}
		return r.Snapshot()
	}
	snaps := []*Snapshot{mk(0), mk(1), mk(2), mk(3)}
	batch := rollup(t, snaps...).Snapshot()

	for _, p := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		ordered := make([]*Snapshot, len(p))
		for i, j := range p {
			ordered[i] = snaps[j]
		}
		if got := rollup(t, ordered...).Snapshot(); !reflect.DeepEqual(got, batch) {
			t.Fatalf("absorb order %v changed the rollup:\n%+v\nwant\n%+v", p, got, batch)
		}
	}

	// Balanced partial rollups: two half-rollups absorbed.
	halves := rollup(t,
		rollup(t, snaps[0], snaps[1]).Snapshot(),
		rollup(t, snaps[2], snaps[3]).Snapshot()).Snapshot()
	if !reflect.DeepEqual(halves, batch) {
		t.Fatalf("partial rollups differ:\n%+v\nwant\n%+v", halves, batch)
	}
}

// A snapshot is written whole: trailing whitespace is fine, any other
// byte after the JSON value is corruption and is reported at its offset.
func TestReadSnapshotRejectsTrailingData(t *testing.T) {
	a, b := shardSnapshots()
	var buf bytes.Buffer
	if err := WriteSnapshotJSON(&buf, rollup(t, a, b).Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	if _, err := ReadSnapshot(strings.NewReader(snap + " \n\t\r\n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{`garbage{"x":`, "\n{}", " x"} {
		_, err := ReadSnapshot(strings.NewReader(snap + tail))
		off := len(snap) + len(tail) - len(strings.TrimLeft(tail, " \n"))
		want := fmt.Sprintf("obs: bad snapshot: trailing data at offset %d", off)
		if err == nil || err.Error() != want {
			t.Errorf("tail %q: error %v, want %q", tail, err, want)
		}
	}
}

func TestMergeSnapshotJSONRoundTrip(t *testing.T) {
	a := NewRegistry(nil)
	a.Counter("x_total").Inc()
	a.Histogram("h").Observe(2)
	m := rollup(t, a.Snapshot()).Snapshot()

	var buf bytes.Buffer
	if err := WriteSnapshotJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("snapshot JSON round trip changed data:\n%+v\n%+v", m, back)
	}
}

// A bad snapshot is refused whole, with an error naming the metric,
// and leaves the registry as it was.
func TestAbsorbRejectsMalformed(t *testing.T) {
	hist := func(edit func(h *HistSnap)) *Snapshot {
		h := HistSnap{Name: "wait", Count: 3, Sum: 7, Min: 1, Max: 4,
			Buckets: []BucketSnap{{LE: 1, Count: 1}, {LE: 5, Count: 3}}}
		edit(&h)
		// A valid counter first: nothing of it may land.
		return &Snapshot{Counters: []CounterSnap{{Name: "ok_total", Value: 1}}, Histograms: []HistSnap{h}}
	}
	now := sim.Time(5)
	clocked := NewRegistry(func() sim.Time { return now })
	clocked.StartSpan("job", "1.0").End("completed")
	for _, c := range []struct {
		name string
		snap *Snapshot
		want string
	}{
		{"bound", hist(func(h *HistSnap) { h.Buckets[0].LE = 3 }), `histogram "wait": bucket le=3 is not one of its bounds`},
		{"cumulative", hist(func(h *HistSnap) { h.Buckets[1].Count = 0 }), `histogram "wait": buckets are not cumulative`},
		{"order", hist(func(h *HistSnap) { h.Buckets[0], h.Buckets[1] = h.Buckets[1], h.Buckets[0] }), `histogram "wait": buckets are not cumulative`},
		{"count", hist(func(h *HistSnap) { h.Count = 2 }), `histogram "wait": buckets hold 3 samples, count is 2`},
		{"nan", hist(func(h *HistSnap) { h.Sum = math.NaN() }), `histogram "wait": non-finite moments`},
		{"minmax", hist(func(h *HistSnap) { h.Min = 9 }), `histogram "wait": min 9 > max 4`},
		{"twice", &Snapshot{Histograms: []HistSnap{{Name: "h"}, {Name: "h"}}}, `histogram "h": listed twice`},
		{"spans", clocked.Snapshot(), "snapshot carries 1 spans"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry(nil)
			r.Counter("ok_total").Add(2)
			before := r.Snapshot()
			err := r.Absorb(c.snap)
			if err == nil || !strings.HasPrefix(err.Error(), "obs: absorb: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %v, want obs: absorb: …%s…", err, c.want)
			}
			if after := r.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused snapshot changed the registry:\n%+v\nwant\n%+v", after, before)
			}
		})
	}
}

// FuzzAbsorb feeds bytes through ReadSnapshot and Absorb: no panic,
// every error is obs's, and an accepted snapshot round-trips
// byte-identically through Snapshot, WriteSnapshotJSON, ReadSnapshot
// and Absorb again.
func FuzzAbsorb(f *testing.F) {
	a, b := shardSnapshots()
	for _, s := range []*Snapshot{a, b, rollup(f, a, b).Snapshot()} {
		var buf bytes.Buffer
		if err := WriteSnapshotJSON(&buf, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	cell, err := os.ReadFile("testdata/cell_snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cell)
	f.Add(append(append([]byte{}, cell...), `garbage{"x":`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry(nil)
		in, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			err = r.Absorb(in)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "obs:") {
				t.Fatalf("error %q does not start with obs:", err)
			}
			return
		}
		write := func(r *Registry) []byte {
			var buf bytes.Buffer
			if err := WriteSnapshotJSON(&buf, r.Snapshot()); err != nil {
				t.Fatalf("accepted snapshot does not render: %v", err)
			}
			return buf.Bytes()
		}
		once := write(r)
		back, err := ReadSnapshot(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("rendered rollup does not parse: %v", err)
		}
		if twice := write(rollup(t, back)); !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed bytes:\n%s\nthen\n%s", once, twice)
		}
	})
}
