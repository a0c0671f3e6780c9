package fakequakes

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/obs"
)

// Green's-function recycling: Phase B is the paper's dominant cost —
// hours proportional to station count — and its product depends only
// on the fault geometry, the station set, and the GF configuration,
// none of which change across the scenarios of a campaign. GFCache
// extends the distance-matrix .npy recycling to the whole Phase B
// product: the first run computes and persists the kernels, every
// later run (or parallel job) sharing the same geometry loads them
// and skips ComputeGreens entirely.
//
// Durability follows the covcache contract: files are written through
// writeNPY (atomicfile: temp + fsync + rename), and a truncated or
// garbage file on load is skipped and recomputed — never trusted,
// never fatal. The loaded float64 bits are exactly the computed bits
// (npy round-trips them verbatim), so warm runs are byte-identical to
// cold runs by construction.

// computeGreensCalls counts ComputeGreens invocations; the recycling
// tests use it to assert a warm cache run skips Phase B entirely.
var computeGreensCalls atomic.Uint64

// gfKernelVersion tags GFFingerprint with the generation of the
// synthesis arithmetic, mirroring covKernelVersion: if the kernel
// formulas or their rounding ever change, bumping this orphans every
// stale greens_*.npy instead of letting it break bit-determinism.
const gfKernelVersion = 1

// gfNPYPattern names persisted kernels after their fingerprint.
const gfNPYPattern = "greens_%016x.npy"

// GFCache persists Green's-function kernels in a directory, keyed by
// GFFingerprint. It is safe for concurrent use.
type GFCache struct {
	dir string

	mu     sync.Mutex
	hits   uint64
	misses uint64
	obs    *obs.Registry
}

// NewGFCache returns a cache rooted at dir (which must exist).
func NewGFCache(dir string) *GFCache {
	return &GFCache{dir: dir}
}

// DefaultGFCache, when non-nil, is consulted by GreensForScenario —
// the seam Fig1/GenerateScenario run through. Nil (the default) means
// no persistence: recycling is opt-in because it writes files.
var DefaultGFCache *GFCache

// SetObs mirrors hit/miss tallies into a metrics registry (nil
// disables). Lookup behaviour is unchanged either way.
func (c *GFCache) SetObs(r *obs.Registry) {
	c.mu.Lock()
	c.obs = r
	c.mu.Unlock()
}

func (c *GFCache) record(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
		if c.obs != nil {
			c.obs.Counter("fdw_gfcache_hits_total").Inc()
		}
		return
	}
	c.misses++
	if c.obs != nil {
		c.obs.Counter("fdw_gfcache_misses_total").Inc()
	}
}

// GFFingerprint digests everything the Green's functions depend on:
// the synthesis generation, the configuration, the full fault geometry
// (every field computeStation reads), the station list, and the
// station-distance matrix rows the kernels are built from. Two runs
// agreeing on the fingerprint compute bit-identical kernels.
func GFFingerprint(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) uint64 {
	h := newFNV()
	h.word(gfKernelVersion)
	h.float(cfg.Dt)
	h.word(uint64(cfg.Nsamples))
	h.float(cfg.VpKmS)
	h.float(cfg.VsKmS)
	h.word(uint64(f.NumSubfaults()))
	for i := range f.Subfaults {
		s := &f.Subfaults[i]
		h.float(s.Center.Lat)
		h.float(s.Center.Lon)
		h.float(s.DepthKm)
		h.float(s.StrikeDeg)
		h.float(s.DipDeg)
		h.float(s.LengthKm)
		h.float(s.WidthKm)
	}
	h.word(uint64(len(stations)))
	for i := range stations {
		h.str(stations[i].Name)
		h.float(stations[i].Pos.Lat)
		h.float(stations[i].Pos.Lon)
	}
	if d != nil && d.Station != nil {
		h.word(uint64(d.Station.Rows))
		h.word(uint64(d.Station.Cols))
		for _, v := range d.Station.Data {
			h.float(v)
		}
	}
	return uint64(h)
}

// LoadOrCompute returns the Green's functions for (f, stations, cfg):
// recycled from the cache directory when a fingerprint-matching .npy
// holds a well-formed kernel of the expected shape, otherwise computed
// and persisted. The second result reports a warm hit. A corrupt or
// truncated cache file is skipped and recomputed — the covcache
// durability contract — but a failure to *persist* a fresh kernel is
// reported, since silently dropping it would turn every later run cold.
func (c *GFCache) LoadOrCompute(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) (*GreensFunctions, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	if err := d.Validate(f.NumSubfaults(), len(stations)); err != nil {
		return nil, false, err
	}
	key := GFFingerprint(f, stations, d, cfg)
	path := filepath.Join(c.dir, fmt.Sprintf(gfNPYPattern, key))
	if g := loadGreensNPY(path, f.NumSubfaults(), stations, cfg); g != nil {
		c.record(true)
		return g, true, nil
	}
	g, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		return nil, false, err
	}
	c.record(false)
	if err := writeNPY(path, flattenGreens(g)); err != nil {
		return nil, false, fmt.Errorf("fakequakes: persisting greens cache: %w", err)
	}
	return g, false, nil
}

// flattenGreens packs the kernel into one (stations·NSub·3)×Nsamples
// matrix, rows ordered (station, subfault, component) — the layout
// unflattenGreens inverts.
func flattenGreens(g *GreensFunctions) *linalg.Matrix {
	rows := len(g.Stations) * g.NSub * 3
	m := linalg.NewMatrix(rows, g.Cfg.Nsamples)
	r := 0
	for s := range g.Kernel {
		for sf := 0; sf < g.NSub; sf++ {
			for c := 0; c < 3; c++ {
				copy(m.Row(r), g.Kernel[s][sf][c])
				r++
			}
		}
	}
	return m
}

// loadGreensNPY reads a persisted kernel and rebuilds GreensFunctions,
// returning nil for any unusable file: unreadable, undecodable, or the
// wrong shape for the requested geometry. The kernel rows alias the
// loaded matrix (consumers only read them).
func loadGreensNPY(path string, nsub int, stations []geom.Station, cfg GFConfig) *GreensFunctions {
	m, err := readNPY(path)
	if err != nil {
		return nil // missing, truncated, or garbage: recompute on miss
	}
	if m.Rows != len(stations)*nsub*3 || m.Cols != cfg.Nsamples {
		return nil
	}
	g := &GreensFunctions{Cfg: cfg, Stations: stations, NSub: nsub}
	g.Kernel = make([][][3][]float64, len(stations))
	r := 0
	for s := range g.Kernel {
		g.Kernel[s] = make([][3][]float64, nsub)
		for sf := 0; sf < nsub; sf++ {
			for c := 0; c < 3; c++ {
				g.Kernel[s][sf][c] = m.Row(r)
				r++
			}
		}
	}
	return g
}

// GreensForScenario is the Phase B entry point the scenario pipeline
// uses: it recycles through DefaultGFCache when one is installed and
// computes directly otherwise. Both paths return bit-identical kernels
// (the cache stores the exact float64 bits), so enabling recycling
// never changes a scenario's bytes — only how long Phase B takes.
func GreensForScenario(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) (*GreensFunctions, error) {
	if DefaultGFCache != nil {
		g, _, err := DefaultGFCache.LoadOrCompute(f, stations, d, cfg)
		return g, err
	}
	return ComputeGreens(f, stations, d, cfg)
}
