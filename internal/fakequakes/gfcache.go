package fakequakes

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fdw/internal/core/atomicfile"
	"fdw/internal/geom"
	"fdw/internal/npy"
	"fdw/internal/obs"
	"fdw/internal/par"
)

// Green's-function recycling: Phase B is the paper's dominant cost —
// hours proportional to station count — and its product depends only
// on the fault geometry, the station set, and the GF configuration,
// none of which change across the scenarios of a campaign. GFCache
// extends the distance-matrix .npy recycling to the whole Phase B
// product: the first run computes and persists the kernels' parameter
// table, every later run (or parallel job) sharing the same geometry
// loads it and skips ComputeGreens entirely.
//
// Durability follows the covcache contract: files are written
// through writeGreensNPY (atomicfile: temp + fsync + rename), and a
// truncated or garbage file on load is skipped and recomputed — never
// trusted, never fatal. The loaded amplitudes are exactly the computed
// bits (npy round-trips them verbatim), the arrivals are integers and
// the leads are recomputed from both, so warm runs are byte-identical
// to cold runs by construction.

// computeGreensCalls counts ComputeGreens invocations; the recycling
// tests use it to assert a warm cache run skips Phase B entirely.
var computeGreensCalls atomic.Uint64

// gfKernelVersion tags GFFingerprint with the generation of the
// synthesis arithmetic and of the file layout, mirroring
// covKernelVersion: if the kernel formulas, their rounding or what a
// greens_*.npy holds ever change, bumping this orphans every stale
// file instead of letting it break bit-determinism. Version 1 files
// held sample kernels; version 2 files hold the parameter table.
const gfKernelVersion = 2

// gfNPYPattern names persisted parameter tables after their
// fingerprint.
const gfNPYPattern = "greens_%016x.npy"

// GFCache persists Green's-function parameter tables in a directory,
// keyed by GFFingerprint. It is safe for concurrent use.
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
// holds a well-formed parameter table of the expected shape, otherwise
// computed and persisted. The second result reports a warm hit. A
// corrupt or truncated cache file is skipped and recomputed — the
// covcache durability contract — but a failure to *persist* a fresh
// table is reported, since silently dropping it would turn every later
// run cold.
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
	if err := writeGreensNPY(path, g); err != nil {
		return nil, false, fmt.Errorf("fakequakes: persisting greens cache: %w", err)
	}
	return g, false, nil
}

// paramCols is the width of a greens_*.npy row: one (station,
// subfault)'s arr, then its three sa, then its three da.
const paramCols = 7

// writeGreensNPY streams the parameter table into path through
// atomicfile (temp + fsync + rename). The file is one
// (stations·NSub)×paramCols '<f8' array, rows ordered (station,
// subfault): station s's rows are one contiguous run of NSub·paramCols
// values. The leads are not stored; a load recomputes them.
func writeGreensNPY(path string, g *GreensFunctions) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		var row [paramCols]float64
		return npy.WriteRows(w, len(g.params)*g.NSub, paramCols, func(i int) []float64 {
			kp := &g.params[i/g.NSub][i%g.NSub]
			row = [paramCols]float64{float64(kp.arr), kp.sa[0], kp.sa[1], kp.sa[2], kp.da[0], kp.da[1], kp.da[2]}
			return row[:]
		})
	})
}

// loadGreensNPY reads a persisted parameter table and rebuilds
// GreensFunctions, returning nil for any unusable file: unreadable,
// undecodable, the wrong shape for the requested geometry, a length
// other than that shape's, or a row whose arr is not an integer in
// [0, Nsamples]. Nothing is allocated for the table until the shape
// and the length both match. Then stations load in parallel, like
// ComputeGreens: each worker reads a station's rows into its own
// buffer with one ReadAt, decodes them, and recomputes each lead from
// the loaded values. Amplitudes are taken verbatim, whatever they are.
func loadGreensNPY(path string, nsub int, stations []geom.Station, cfg GFConfig) *GreensFunctions {
	f, err := os.Open(path)
	if err != nil {
		return nil // missing: recompute on miss
	}
	defer f.Close()
	rows, cols, err := npy.ReadHeader(f)
	if err != nil || rows != len(stations)*nsub || cols != paramCols {
		return nil // garbage or another geometry: recompute
	}
	start, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil
	}
	info, err := f.Stat()
	per := int64(8 * paramCols * nsub) // bytes per station
	if err != nil || info.Size()-start != per*int64(len(stations)) {
		return nil // truncated or overlong: recompute
	}
	g := newGreens(cfg, stations, nsub)
	err = par.Each(0, len(stations), func() func(int) error {
		buf := make([]byte, per)
		return func(s int) error {
			if _, err := f.ReadAt(buf, start+per*int64(s)); err != nil {
				return err // shrank since the length check
			}
			return g.decodeStation(s, buf)
		}
	})
	if err != nil {
		return nil
	}
	return g
}

// decodeStation fills station s's parameter row from buf, NSub rows
// of paramCols little-endian float64s, and fails if any arr is not an
// integer in [0, Nsamples].
func (g *GreensFunctions) decodeStation(s int, buf []byte) error {
	ns := float64(g.Cfg.Nsamples)
	for sf := range g.params[s] {
		var v [paramCols]float64
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*(sf*paramCols+i):]))
		}
		if !(v[0] >= 0 && v[0] <= ns && v[0] == math.Trunc(v[0])) {
			return fmt.Errorf("fakequakes: station %d subfault %d: arrival %v is not an integer in [0, %d]", s, sf, v[0], g.Cfg.Nsamples)
		}
		kp := &g.params[s][sf]
		kp.arr = int32(v[0])
		copy(kp.sa[:], v[1:4])
		copy(kp.da[:], v[4:7])
		kp.lead = g.tab.leadOf(kp)
	}
	return nil
}

// GreensForScenario is the Phase B entry point the scenario pipeline
// uses: it recycles through DefaultGFCache when one is installed and
// computes directly otherwise. Both paths return bit-identical kernels
// (the cache stores the exact parameters), so enabling recycling
// never changes a scenario's bytes — only how long Phase B takes.
func GreensForScenario(f *geom.Fault, stations []geom.Station, d *DistanceMatrices, cfg GFConfig) (*GreensFunctions, error) {
	if DefaultGFCache != nil {
		g, _, err := DefaultGFCache.LoadOrCompute(f, stations, d, cfg)
		return g, err
	}
	return ComputeGreens(f, stations, d, cfg)
}
