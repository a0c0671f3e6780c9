package fakequakes

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/npy"
	"fdw/internal/sim"
)

func testGenerator(t *testing.T) *Generator {
	t.Helper()
	cfg := geom.DefaultChileFault()
	cfg.SubfaultKm = 25
	fault, err := geom.BuildFault(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stations := geom.FullChileanStations()[:2]
	gen, err := NewGenerator(fault, ComputeDistanceMatrices(fault, stations))
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestFactorCacheLRUAndCounters(t *testing.T) {
	c := NewFactorCache(2)
	m1 := linalg.NewMatrix(1, 1)
	m2 := linalg.NewMatrix(2, 2)
	m3 := linalg.NewMatrix(3, 3)

	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, m1)
	c.Put(2, m2)
	if got, ok := c.Get(1); !ok || got != m1 {
		t.Fatal("key 1 missing after put")
	}
	c.Put(3, m3) // evicts 2, the least recently used
	if _, ok := c.Get(2); ok {
		t.Fatal("key 2 survived eviction")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("key 3 missing")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Fatalf("stats %d/%d, want hits 2 misses 2", hits, misses)
	}
}

// A warm hit must return the exact factor a cold run computes, and the
// cached path must leave scenarios bit-identical to the uncached path.
func TestFactorCacheWarmMatchesCold(t *testing.T) {
	gen := testGenerator(t)

	// Cold: private cache, first generation fills it.
	gen.Factors = NewFactorCache(4)
	cold, err := gen.GenerateMw("run000001", 8.1, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if h, m := gen.Factors.Stats(); h != 0 || m != 1 {
		t.Fatalf("cold stats %d/%d, want 0 hits 1 miss", h, m)
	}

	// Warm: same seed and magnitude replays the same patch, hitting.
	warm, err := gen.GenerateMw("run000001", 8.1, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := gen.Factors.Stats(); h != 1 {
		t.Fatalf("warm run did not hit (hits=%d)", h)
	}

	// Cold reference: a fresh cache factorizes again.
	gen.Factors = NewFactorCache(4)
	ref, err := gen.GenerateMw("run000001", 8.1, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}

	for name, pair := range map[string][2][]float64{
		"slip":  {cold.SlipM, ref.SlipM},
		"onset": {cold.OnsetS, ref.OnsetS},
		"warm":  {warm.SlipM, ref.SlipM},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: element %d differs: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// Different placements of the same patch shape share a factor (the
// covariance only sees coordinate differences), while a different
// magnitude — hence correlation length and patch size — does not.
func TestFactorKeyTranslationInvariance(t *testing.T) {
	gen := testGenerator(t)
	gen.Factors = NewFactorCache(8)
	rng := sim.NewRNG(7)
	for i := 0; i < 6; i++ {
		if _, err := gen.GenerateMw("run", 8.3, rng); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := gen.Factors.Stats()
	if misses != 1 || hits != 5 {
		t.Fatalf("fixed-Mw batch: %d hits %d misses, want 5/1", hits, misses)
	}
	if _, err := gen.GenerateMw("run", 8.9, rng); err != nil {
		t.Fatal(err)
	}
	if _, m := gen.Factors.Stats(); m != 2 {
		t.Fatalf("different Mw reused a factor (misses=%d)", m)
	}
}

// TestWriteNPYAtomicReplace pins the other half: replacing a cache
// file is rename-based, so a reader that opened the previous file
// keeps seeing the complete old bytes — an in-place truncating write
// (the pre-fix os.Create path) would yank the data out from under it.
func TestWriteNPYAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "covfactor_replace.npy")
	m1 := linalg.NewMatrix(1, 2)
	copy(m1.Data, []float64{1, 2})
	m2 := linalg.NewMatrix(1, 2)
	copy(m2.Data, []float64{9, 9})

	if err := writeNPY(path, m1); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeNPY(path, m2); err != nil {
		t.Fatal(err)
	}
	old, err := npy.Read(f)
	if err != nil {
		t.Fatalf("reader of the previous file hit a partial write: %v", err)
	}
	if old.Data[0] != 1 || old.Data[1] != 2 {
		t.Fatalf("previous-file reader saw %v, want the complete old matrix", old.Data)
	}
	cur, err := readDistances(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Data[0] != 9 || cur.Data[1] != 9 {
		t.Fatalf("replacement holds %v, want the new matrix", cur.Data)
	}
}

// TestFactorKeyHitsAcrossMwBand: correlation lengths derive from the
// realized patch extent, so magnitudes that round to the same patch
// shape share one factor — Mw 8.30 and 8.31 hit the same entry.
func TestFactorKeyHitsAcrossMwBand(t *testing.T) {
	gen := testGenerator(t)
	gen.Factors = NewFactorCache(8)
	if _, err := gen.GenerateMw("run", 8.30, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.GenerateMw("run", 8.31, sim.NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	hits, misses := gen.Factors.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("Mw 8.30/8.31 pair: %d hits %d misses, want the band to share one factor (1/1)", hits, misses)
	}
}
