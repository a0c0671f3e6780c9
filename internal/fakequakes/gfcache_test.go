package fakequakes

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"fdw/internal/geom"
	"fdw/internal/obs"
	"fdw/internal/sim"
)

func gfTestConfig() GFConfig {
	return GFConfig{Dt: 1, Nsamples: 64, VpKmS: 6.8, VsKmS: 3.9}
}

// TestGFCacheWarmSkipsComputeAndMatchesCold pins the tentpole
// acceptance contract: a warm cache run performs zero ComputeGreens
// calls — asserted by both the compute counter and the obs counters —
// and returns kernels bit-identical to the cold run's.
func TestGFCacheWarmSkipsComputeAndMatchesCold(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	c := NewGFCache(t.TempDir())
	reg := obs.NewRegistry(nil)
	c.SetObs(reg)

	cold, hit, err := c.LoadOrCompute(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run reported a warm hit")
	}

	before := computeGreensCalls.Load()
	warm, hit, err := c.LoadOrCompute(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second run with identical geometry missed")
	}
	if got := computeGreensCalls.Load(); got != before {
		t.Fatalf("warm run invoked ComputeGreens %d times, want 0", got-before)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats %d/%d, want 1 hit 1 miss", h, m)
	}
	counters := map[string]uint64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if v := counters["fdw_gfcache_hits_total"]; v != 1 {
		t.Fatalf("obs hits = %d, want 1", v)
	}
	if v := counters["fdw_gfcache_misses_total"]; v != 1 {
		t.Fatalf("obs misses = %d, want 1", v)
	}

	for s := range cold.Kernel {
		for sf := 0; sf < cold.NSub; sf++ {
			for comp := 0; comp < 3; comp++ {
				a, b := cold.Kernel[s][sf][comp], warm.Kernel[s][sf][comp]
				if len(a) != len(b) {
					t.Fatalf("kernel [%d][%d][%d] length %d vs %d", s, sf, comp, len(a), len(b))
				}
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatalf("kernel [%d][%d][%d][%d]: %v vs %v — recycled bits differ",
							s, sf, comp, i, a[i], b[i])
					}
				}
			}
		}
	}

	// Downstream products must be identical too: same rupture + noise
	// seed over cold and warm kernels.
	gen, err := NewGenerator(f, d)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.GenerateMw("run0", 8.0, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	wCold, err := SynthesizeWaveforms(r, cold, DefaultNoise(), sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	wWarm, err := SynthesizeWaveforms(r, warm, DefaultNoise(), sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wCold {
		for comp := 0; comp < 3; comp++ {
			a, b := wCold[i].ENZ[comp], wWarm[i].ENZ[comp]
			for k := range a {
				if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
					t.Fatalf("waveform %d comp %d sample %d differs on warm kernels", i, comp, k)
				}
			}
		}
	}
}

// TestGFCacheCorruptSkippedAndRecomputed pins the durability half of
// the contract (the covcache clause one product up): a truncated or
// garbage greens_*.npy is skipped and recomputed, never trusted, never
// fatal — and the recompute repairs the file.
func TestGFCacheCorruptSkippedAndRecomputed(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	dir := t.TempDir()
	c := NewGFCache(dir)

	want, _, err := c.LoadOrCompute(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := GFFingerprint(f, stations, d, cfg)
	path := filepath.Join(dir, fmt.Sprintf(gfNPYPattern, key))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, contents := range map[string][]byte{
		"truncated": b[:len(b)/2],
		"garbage":   []byte("not an npy file"),
	} {
		if err := os.WriteFile(path, contents, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit, err := c.LoadOrCompute(f, stations, d, cfg)
		if err != nil {
			t.Fatalf("%s cache file must recompute, not fail: %v", name, err)
		}
		if hit {
			t.Fatalf("%s cache file was trusted as a hit", name)
		}
		for s := range want.Kernel {
			for sf := 0; sf < want.NSub; sf++ {
				for comp := 0; comp < 3; comp++ {
					a, w := got.Kernel[s][sf][comp], want.Kernel[s][sf][comp]
					for i := range w {
						if math.Float64bits(a[i]) != math.Float64bits(w[i]) {
							t.Fatalf("recomputed kernel differs after %s file", name)
						}
					}
				}
			}
		}
		// The recompute must have repaired the file for the next run.
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || !hit {
			t.Fatalf("after %s repair: hit=%v err=%v, want warm hit", name, hit, err)
		}
	}
}

// TestGFCacheHostileShapeRecomputed: a greens_*.npy whose header
// claims an overflowing shape is a miss that rewrites the file, not a
// panic.
func TestGFCacheHostileShapeRecomputed(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	dir := t.TempDir()
	c := NewGFCache(dir)
	path := filepath.Join(dir, fmt.Sprintf(gfNPYPattern, GFFingerprint(f, stations, d, cfg)))
	for _, shape := range []string{"(2147483648, 2147483648)", "(4294967296, 4294967296)"} {
		header := "{'descr': '<f8', 'fortran_order': False, 'shape': " + shape + ", }\n"
		b := append([]byte("\x93NUMPY\x01\x00"), byte(len(header)), 0)
		b = append(append(b, header...), make([]byte, 16)...)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || hit {
			t.Fatalf("shape %s: hit=%v err=%v, want a recomputed miss", shape, hit, err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || !hit {
			t.Fatalf("shape %s: after rewrite hit=%v err=%v, want warm hit", shape, hit, err)
		}
	}
}

// TestGFFingerprintSensitivity: any input the kernels read must change
// the fingerprint, or a stale file would satisfy the wrong geometry.
func TestGFFingerprintSensitivity(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	base := GFFingerprint(f, stations, d, cfg)

	cfg2 := cfg
	cfg2.Nsamples = 128
	if GFFingerprint(f, stations, d, cfg2) == base {
		t.Fatal("Nsamples not in fingerprint")
	}
	cfg3 := cfg
	cfg3.VsKmS = 4.0
	if GFFingerprint(f, stations, d, cfg3) == base {
		t.Fatal("VsKmS not in fingerprint")
	}
	if GFFingerprint(f, stations[:1], d, cfg) == base {
		t.Fatal("station list not in fingerprint")
	}
	renamed := append([]geom.Station(nil), stations...)
	renamed[0].Name = "XXXX"
	if GFFingerprint(f, renamed, d, cfg) == base {
		t.Fatal("station name not in fingerprint")
	}
	moved := append([]geom.Station(nil), stations...)
	moved[0].Pos.Lat += 0.01
	if GFFingerprint(f, moved, d, cfg) == base {
		t.Fatal("station position not in fingerprint")
	}
}

// TestGFCacheDeterminismAcrossGOMAXPROCS mirrors the repo-level
// obs_determinism pin for the recycling path: cold compute at one
// worker count, warm loads at another, all bit-identical.
func TestGFCacheDeterminismAcrossGOMAXPROCS(t *testing.T) {
	f, stations, d := smallSetup(t, 3)
	cfg := gfTestConfig()
	dir := t.TempDir()

	old := runtime.GOMAXPROCS(1)
	cold, hit, err := NewGFCache(dir).LoadOrCompute(f, stations, d, cfg)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	runtime.GOMAXPROCS(4)
	warm, hit, err := NewGFCache(dir).LoadOrCompute(f, stations, d, cfg)
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v", hit, err)
	}
	direct, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(old)

	for s := range cold.Kernel {
		for sf := 0; sf < cold.NSub; sf++ {
			for comp := 0; comp < 3; comp++ {
				a := cold.Kernel[s][sf][comp]
				b := warm.Kernel[s][sf][comp]
				c := direct.Kernel[s][sf][comp]
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) ||
						math.Float64bits(a[i]) != math.Float64bits(c[i]) {
						t.Fatalf("kernel [%d][%d][%d][%d] differs across GOMAXPROCS/recycle paths", s, sf, comp, i)
					}
				}
			}
		}
	}
}

// TestGreensForScenarioSeam: the nil-default seam computes directly;
// installing DefaultGFCache recycles through it.
func TestGreensForScenarioSeam(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	if DefaultGFCache != nil {
		t.Fatal("DefaultGFCache non-nil at test start")
	}
	direct, err := GreensForScenario(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	DefaultGFCache = NewGFCache(t.TempDir())
	defer func() { DefaultGFCache = nil }()
	if _, err := GreensForScenario(f, stations, d, cfg); err != nil {
		t.Fatal(err)
	}
	before := computeGreensCalls.Load()
	warm, err := GreensForScenario(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := computeGreensCalls.Load(); got != before {
		t.Fatalf("warm GreensForScenario invoked ComputeGreens %d times, want 0", got-before)
	}
	if h, m := DefaultGFCache.Stats(); h != 1 || m != 1 {
		t.Fatalf("seam stats %d/%d, want 1/1", h, m)
	}
	for s := range direct.Kernel {
		for sf := 0; sf < direct.NSub; sf++ {
			for comp := 0; comp < 3; comp++ {
				a, b := direct.Kernel[s][sf][comp], warm.Kernel[s][sf][comp]
				for i := range a {
					if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
						t.Fatal("seam recycle changed kernel bits")
					}
				}
			}
		}
	}
}
