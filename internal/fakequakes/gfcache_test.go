package fakequakes

import (
	"crypto/sha256"
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

// TestGFCacheFileBytesPinned: the bytes a miss writes are the cache's
// on-disk format, so existing greens_*.npy files stay valid only while
// this digest holds. Changing it needs a gfKernelVersion bump.
func TestGFCacheFileBytesPinned(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	dir := t.TempDir()
	if _, _, err := NewGFCache(dir).LoadOrCompute(f, stations, d, cfg); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(gfNPYPattern, GFFingerprint(f, stations, d, cfg))))
	if err != nil {
		t.Fatal(err)
	}
	const want = "0ad3def434fa7758f31b852c6db07016393ad23e2107c65abeb4afc56708e4f1"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != 540800 || got != want {
		t.Fatalf("greens file: %d bytes, sha256 %s; want 540800 bytes, sha256 %s", len(b), got, want)
	}
}

// TestGFCacheFillAllocatesOneKernel: a miss computes the kernel and
// streams it to disk without copying it, and a hit allocates the
// kernel once; each allocates at most 1.1x the kernel plus 1 MiB.
func TestGFCacheFillAllocatesOneKernel(t *testing.T) {
	f, stations, d := smallSetup(t, 4)
	cfg := DefaultGFConfig()
	kernel := uint64(len(stations) * f.NumSubfaults() * 3 * cfg.Nsamples * 8)
	c := NewGFCache(t.TempDir())
	for _, want := range []bool{false, true} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, hit, err := c.LoadOrCompute(f, stations, d, cfg)
		runtime.ReadMemStats(&after)
		if err != nil || hit != want {
			t.Fatalf("hit=%v err=%v, want hit=%v", hit, err, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > kernel*11/10+1<<20 {
			t.Fatalf("hit=%v allocated %d bytes for a %d-byte kernel (%.2fx)", hit, got, kernel, float64(got)/float64(kernel))
		}
	}
}

// TestGFCacheTruncatedAtStationBoundaries: a greens_*.npy cut at any
// station boundary, or 8 bytes either side of one, or 8 bytes too
// long, is a recomputed miss that repairs the file — never a panic,
// never a hit.
func TestGFCacheTruncatedAtStationBoundaries(t *testing.T) {
	f, stations, d := smallSetup(t, 3)
	cfg := gfTestConfig()
	dir := t.TempDir()
	c := NewGFCache(dir)
	if _, _, err := c.LoadOrCompute(f, stations, d, cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf(gfNPYPattern, GFFingerprint(f, stations, d, cfg)))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	station := f.NumSubfaults() * 3 * cfg.Nsamples * 8
	start := len(b) - len(stations)*station
	lengths := []int{start + station - 8, start + station + 8, len(b) - 8, len(b) + 8}
	for s := range stations {
		lengths = append(lengths, start+s*station)
	}
	for _, n := range lengths {
		cut := append(append([]byte(nil), b[:min(n, len(b))]...), make([]byte, max(0, n-len(b)))...)
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || hit {
			t.Fatalf("file cut to %d of %d bytes: hit=%v err=%v, want a recomputed miss", n, len(b), hit, err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || !hit {
			t.Fatalf("file cut to %d of %d bytes: after repair hit=%v err=%v, want warm hit", n, len(b), hit, err)
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
// worker count, warm loads (one goroutine per station) at one and at
// four, all bit-identical to ComputeGreens.
func TestGFCacheDeterminismAcrossGOMAXPROCS(t *testing.T) {
	f, stations, d := smallSetup(t, 3)
	cfg := gfTestConfig()
	dir := t.TempDir()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cold, hit, err := NewGFCache(dir).LoadOrCompute(f, stations, d, cfg)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v", hit, err)
	}
	runtime.GOMAXPROCS(4)
	direct, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*GreensFunctions{"cold": cold}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		warm, hit, err := NewGFCache(dir).LoadOrCompute(f, stations, d, cfg)
		if err != nil || !hit {
			t.Fatalf("warm at GOMAXPROCS %d: hit=%v err=%v", procs, hit, err)
		}
		got[fmt.Sprintf("warm at GOMAXPROCS %d", procs)] = warm
	}

	for name, g := range got {
		if len(g.Kernel) != len(direct.Kernel) {
			t.Fatalf("%s: %d stations, want %d", name, len(g.Kernel), len(direct.Kernel))
		}
		for s := range direct.Kernel {
			for sf := 0; sf < direct.NSub; sf++ {
				for comp := 0; comp < 3; comp++ {
					a, c := g.Kernel[s][sf][comp], direct.Kernel[s][sf][comp]
					if len(a) != len(c) || cap(a) != len(c) {
						t.Fatalf("%s: kernel [%d][%d][%d] len %d cap %d, want %d", name, s, sf, comp, len(a), cap(a), len(c))
					}
					for i := range c {
						if math.Float64bits(a[i]) != math.Float64bits(c[i]) {
							t.Fatalf("%s: kernel [%d][%d][%d][%d] differs from ComputeGreens", name, s, sf, comp, i)
						}
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

// TestGFCacheRoundTripKeepsLead: on the paper's 20 km mesh, the leads
// a warm load scans from sample 0 of the kernels equal the ones
// ComputeGreens finds by scanning on from each S arrival. Four
// stations from the south to the north end of the network put the
// arrivals from early samples to far into the record.
func TestGFCacheRoundTripKeepsLead(t *testing.T) {
	fc := geom.DefaultChileFault()
	fc.SubfaultKm = 20
	f, err := geom.BuildFault(fc)
	if err != nil {
		t.Fatal(err)
	}
	all := geom.FullChileanStations()
	stations := []geom.Station{all[0], all[40], all[80], all[120]}
	d := ComputeDistanceMatrices(f, stations)
	cfg := DefaultGFConfig()
	direct, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewGFCache(t.TempDir())
	if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || hit {
		t.Fatalf("fill: hit=%v err=%v", hit, err)
	}
	warm, hit, err := c.LoadOrCompute(f, stations, d, cfg)
	if err != nil || !hit {
		t.Fatalf("load: hit=%v err=%v", hit, err)
	}
	minLead, maxLead := int32(cfg.Nsamples), int32(0)
	for s := range stations {
		for sf := 0; sf < f.NumSubfaults(); sf++ {
			lead := direct.lead[s][sf]
			if got := warm.lead[s][sf]; got != lead {
				t.Fatalf("station %d subfault %d: loaded lead %d, computed %d", s, sf, got, lead)
			}
			minLead, maxLead = min(minLead, lead), max(maxLead, lead)
		}
	}
	if minLead == 0 || maxLead < 100 {
		t.Fatalf("leads span [%d, %d]; want the set to start past sample 0 and reach past 100", minLead, maxLead)
	}
}
