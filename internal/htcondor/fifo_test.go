package htcondor

import (
	"testing"

	"fdw/internal/sim"
)

// TestFIFOCursorSkipsOnlyTombstones drives one owner queue through
// random pushes, removals (mostly from the front, as claiming does)
// and the compactions push triggers. After every step a cursor from
// OwnerIdleCursor, which starts at the queue's head, must yield exactly
// the live jobs a scan from index 0 yields, in the same order, and
// jobs[:head] must all be tombstones.
func TestFIFOCursorSkipsOnlyTombstones(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := sim.NewRNG(seed)
		s := &Schedd{ownerQ: map[string]*jobFIFO{}}
		var queued []*Job
		for step := 0; step < 400; step++ {
			switch {
			case r.Float64() < 0.5:
				j := &Job{Owner: "u"}
				s.insertIdle(j)
				queued = append(queued, j)
			case len(queued) > 0:
				i := 0 // claiming takes the head of line
				if r.Float64() < 0.3 {
					i = r.Intn(len(queued))
				}
				if !s.removeIdle(queued[i]) {
					t.Fatalf("seed %d step %d: queued job not removed", seed, step)
				}
				queued = append(queued[:i], queued[i+1:]...)
			}
			q := s.ownerQ["u"]
			if q == nil {
				continue
			}
			for i, j := range q.jobs[:q.head] {
				if j != nil {
					t.Fatalf("seed %d step %d: live job at %d before head %d", seed, step, i, q.head)
				}
			}
			var scan []*Job
			for _, j := range q.jobs {
				if j != nil {
					scan = append(scan, j)
				}
			}
			var got []*Job
			for c := s.OwnerIdleCursor("u"); c.Peek() != nil; c.Pop() {
				got = append(got, c.Peek())
			}
			if len(got) != len(scan) || len(got) != q.live || len(got) != len(queued) {
				t.Fatalf("seed %d step %d: cursor %d jobs, scan %d, live %d, queued %d",
					seed, step, len(got), len(scan), q.live, len(queued))
			}
			for i := range got {
				if got[i] != scan[i] || got[i] != queued[i] {
					t.Fatalf("seed %d step %d: job %d differs between cursor, scan and queue order", seed, step, i)
				}
			}
		}
	}
}
