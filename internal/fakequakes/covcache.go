package fakequakes

import (
	"container/list"
	"math"
	"sync"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/obs"
)

// FactorCache memoizes Cholesky factors of the slip covariance. It
// extends the paper's .npy-recycling idea one level up: just as a
// single job computes the O(n²) distance matrices once and every
// parallel rupture job reuses the files (DistanceMatrices), batches of
// ruptures over the same fault pay the O(n³) factorization once and
// reuse the factor from this LRU. Each Generator owns one, so the
// cache lives exactly as long as the rupture job that fills it.
//
// Entries are keyed by a hash of everything the covariance depends on:
// the fault geometry, the correlation kernel, the correlation lengths
// (hence the target magnitude), the log-slip sigma, and the rupture
// patch's *relative* subfault layout. Relative — not absolute — layout,
// because the kernel only sees coordinate differences, so two
// placements of the same patch shape share a factor; this is what makes
// the cache hit on every scenario of a fixed-Mw batch.
//
// Cached factors are immutable: Get returns the stored matrix, and
// callers must not write to it (MulVec and SolveCholesky do not).
type FactorCache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]*list.Element
	lru     list.List // front = most recently used; values are *factorEntry
	hits    uint64
	misses  uint64

	obs *obs.Registry
}

type factorEntry struct {
	key uint64
	l   *linalg.Matrix
}

// NewFactorCache returns an empty LRU holding at most capacity factors.
func NewFactorCache(capacity int) *FactorCache {
	if capacity < 1 {
		capacity = 1
	}
	return &FactorCache{cap: capacity, entries: make(map[uint64]*list.Element)}
}

// SetObs mirrors the cache's hit/miss/eviction tallies into a metrics
// registry (nil disables). Lookup behaviour is unchanged either way.
func (c *FactorCache) SetObs(r *obs.Registry) {
	c.mu.Lock()
	c.obs = r
	c.mu.Unlock()
}

// Get returns the factor stored under key, marking it most recently
// used. The second result reports whether the key was present.
func (c *FactorCache) Get(key uint64) (*linalg.Matrix, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		if c.obs != nil {
			c.obs.Counter("fdw_covcache_hits_total").Inc()
		}
		return el.Value.(*factorEntry).l, true
	}
	c.misses++
	if c.obs != nil {
		c.obs.Counter("fdw_covcache_misses_total").Inc()
	}
	return nil, false
}

// Put stores l under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its recency.
func (c *FactorCache) Put(key uint64, l *linalg.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*factorEntry).l = l
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&factorEntry{key: key, l: l})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*factorEntry).key)
		if c.obs != nil {
			c.obs.Counter("fdw_covcache_evictions_total").Inc()
		}
	}
	if c.obs != nil {
		c.obs.Gauge("fdw_covcache_entries").Set(float64(c.lru.Len()))
	}
}

// fnv1a implements 64-bit FNV-1a over words; the covariance key mixes
// float bits and small ints through it. A 64-bit digest makes an
// accidental collision across a 16-entry cache astronomically unlikely.
type fnv1a uint64

func newFNV() fnv1a { return 0xcbf29ce484222325 }

func (h *fnv1a) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= 0x100000001b3
	}
	*h = fnv1a(x)
}

func (h *fnv1a) float(v float64) { h.word(math.Float64bits(v)) }

// str mixes a string byte-by-byte, then its length (so consecutive
// strings cannot alias by shifting bytes between them).
func (h *fnv1a) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 0x100000001b3
	}
	*h = fnv1a(x)
	h.word(uint64(len(s)))
}

// faultCovHash digests the fault properties the slip covariance reads:
// the mesh dimensions, subfault spacing, and per-subfault grid layout.
func faultCovHash(f *geom.Fault) uint64 {
	h := newFNV()
	h.word(uint64(f.NumSubfaults()))
	h.word(uint64(f.NAlong))
	h.word(uint64(f.NDown))
	h.float(f.SubfaultLen)
	h.float(f.SubfaultWid)
	for i := range f.Subfaults {
		s := &f.Subfaults[i]
		h.word(uint64(uint32(s.Along))<<32 | uint64(uint32(s.Down)))
	}
	return uint64(h)
}

// covFactorKey identifies one covariance factorization: fault
// geometry, correlation kernel, correlation lengths, sigma, and the
// patch's relative layout.
func covFactorKey(faultHash uint64, kern Kernel, sigmaLn, aS, aD float64, f *geom.Fault, patch []int) uint64 {
	h := newFNV()
	h.word(faultHash)
	h.word(uint64(kern))
	h.float(sigmaLn)
	h.float(aS)
	h.float(aD)
	h.word(uint64(len(patch)))
	if len(patch) > 0 {
		s0 := &f.Subfaults[patch[0]]
		for _, idx := range patch {
			s := &f.Subfaults[idx]
			h.word(uint64(uint32(s.Along-s0.Along))<<32 | uint64(uint32(s.Down-s0.Down)))
		}
	}
	return uint64(h)
}
