package ospool

import (
	"container/heap"
	"testing"

	"fdw/internal/sim"
)

// refFreeHeap is the container/heap free heap the pool ran on before
// its typed sift, kept as the reference freeHeap's layout is checked
// against.
type refFreeHeap []*glidein

func (h refFreeHeap) Len() int           { return len(h) }
func (h refFreeHeap) Less(i, j int) bool { return h[i].id < h[j].id }
func (h refFreeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *refFreeHeap) Push(x any) {
	g := x.(*glidein)
	g.heapIdx = len(*h)
	*h = append(*h, g)
}

func (h *refFreeHeap) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	g.heapIdx = -1
	*h = old[:n-1]
	return g
}

// TestFreeHeapMatchesContainerHeap runs seeded sequences of pushes
// (ids in random order, as released glideins come back) and removals
// at random positions against both heaps, each over its own glidein
// copies, and requires the same id at every slot, current heapIdx
// back-pointers and -1 on every removed glidein after each operation.
func TestFreeHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		r := sim.NewRNG(seed)
		const ids = 64
		var gs, refs [ids]glidein
		for i := range gs {
			gs[i] = glidein{id: i, heapIdx: -1}
			refs[i] = glidein{id: i, heapIdx: -1}
		}
		var h freeHeap
		var ref refFreeHeap
		for op := 0; op < 300; op++ {
			if id := r.Intn(ids); gs[id].heapIdx < 0 && r.Float64() < 0.6 {
				h.push(&gs[id])
				heap.Push(&ref, &refs[id])
			} else if len(h) > 0 {
				i := r.Intn(len(h))
				gone := h[i]
				h.remove(i)
				heap.Remove(&ref, i)
				if gone.heapIdx != -1 {
					t.Fatalf("seed %d op %d: removed glidein %d keeps heapIdx %d", seed, op, gone.id, gone.heapIdx)
				}
			}
			if len(h) != len(ref) {
				t.Fatalf("seed %d op %d: %d glideins, reference %d", seed, op, len(h), len(ref))
			}
			for i := range h {
				if h[i].id != ref[i].id || h[i].heapIdx != i {
					t.Fatalf("seed %d op %d slot %d: id %d heapIdx %d, reference id %d",
						seed, op, i, h[i].id, h[i].heapIdx, ref[i].id)
				}
			}
		}
	}
}
