package fakequakes

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"fdw/internal/geom"
	"fdw/internal/npy"
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

	requireSameSet(t, "warm against cold", warm, cold)

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
		requireSameSet(t, "recomputed after a "+name+" file", got, want)
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
	const want = "56541ef451a6147f661329521c7a03fe58511b8588abdc778ead7f05959da027"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != 19840 || got != want {
		t.Fatalf("greens file: %d bytes, sha256 %s; want 19840 bytes, sha256 %s", len(b), got, want)
	}
}

// TestGFCacheFillAllocatesOneKernel: a miss computes the parameter
// table and streams it to disk without copying it, and a hit
// allocates the table once; each allocates at most the table plus
// 1 MiB.
func TestGFCacheFillAllocatesOneKernel(t *testing.T) {
	f, stations, d := smallSetup(t, 4)
	cfg := DefaultGFConfig()
	table := uint64(len(stations)*f.NumSubfaults()) * uint64(unsafe.Sizeof(kernelParams{}))
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
		if got := after.TotalAlloc - before.TotalAlloc; got > table+1<<20 {
			t.Fatalf("hit=%v allocated %d bytes for a %d-byte parameter table", hit, got, table)
		}
	}
}

// TestGFCacheTruncatedAtStationBoundaries: a greens_*.npy cut at any
// station boundary, at any row boundary of the last station, 8 bytes
// either side of a station boundary, or 8 bytes or a whole row too
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
	row := paramCols * 8
	station := f.NumSubfaults() * row
	start := len(b) - len(stations)*station
	lengths := []int{start + station - 8, start + station + 8, len(b) - 8, len(b) + 8, len(b) + row}
	for s := range stations {
		lengths = append(lengths, start+s*station)
	}
	for r := 1; r < f.NumSubfaults(); r++ {
		lengths = append(lengths, len(b)-r*row)
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
// claims an overflowing shape, or a shape other than the parameter
// table's — the sample layout of format 1, rows one column short or
// long, the transpose — is a miss that rewrites the file, not a panic,
// even when the data is as long as the header says.
func TestGFCacheHostileShapeRecomputed(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := gfTestConfig()
	dir := t.TempDir()
	c := NewGFCache(dir)
	path := filepath.Join(dir, fmt.Sprintf(gfNPYPattern, GFFingerprint(f, stations, d, cfg)))
	rows := len(stations) * f.NumSubfaults()
	for _, shape := range [][2]int{
		{2147483648, 2147483648}, {4294967296, 4294967296},
		{rows * 3, cfg.Nsamples}, {rows, paramCols - 1}, {rows, paramCols + 1}, {paramCols, rows},
	} {
		header := fmt.Sprintf("{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d), }\n", shape[0], shape[1])
		b := append([]byte("\x93NUMPY\x01\x00"), byte(len(header)), 0)
		data := 16
		if shape[0] < 1<<20 {
			data = 8 * shape[0] * shape[1]
		}
		b = append(append(b, header...), make([]byte, data)...)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || hit {
			t.Fatalf("shape %v: hit=%v err=%v, want a recomputed miss", shape, hit, err)
		}
		if _, hit, err := c.LoadOrCompute(f, stations, d, cfg); err != nil || !hit {
			t.Fatalf("shape %v: after rewrite hit=%v err=%v, want warm hit", shape, hit, err)
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
		requireSameSet(t, name, g, direct)
	}
}

// TestGFCacheRoundTripKeepsLead: on the paper's 20 km mesh, the leads
// a warm load recomputes from the stored parameters equal the ones
// ComputeGreens found; the file holds no leads. Four
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
			lead := direct.params[s][sf].lead
			if got := warm.params[s][sf].lead; got != lead {
				t.Fatalf("station %d subfault %d: loaded lead %d, computed %d", s, sf, got, lead)
			}
			minLead, maxLead = min(minLead, lead), max(maxLead, lead)
		}
	}
	if minLead == 0 || maxLead < 100 {
		t.Fatalf("leads span [%d, %d]; want the set to start past sample 0 and reach past 100", minLead, maxLead)
	}
}

// FuzzLoadGreens feeds LoadOrCompute arbitrary greens_*.npy bytes. It
// must never panic or fail. A hit must hold the file's amplitudes
// verbatim and its arrivals as the integers they equal, with each
// lead recomputed, and expand to what
// referenceExpand makes of them (NaN payloads aside); a hit on the
// bytes a miss writes must equal ComputeGreens bit for bit. A miss
// must be ComputeGreens' set and leave the file repaired: those bytes,
// and a warm hit next time. The geometry is small — a station on the
// fault and one far off, 16 subfaults, 16 samples — so a file is
// ~1.9 KB and quick to mutate.
func FuzzLoadGreens(f *testing.F) {
	fault, err := geom.BuildFault(geom.ChileFaultConfig{
		LatSouth: -34, LatNorth: -33,
		TrenchLon: -73.5, TrenchLonSlope: 0.15,
		DipShallowDeg: 10, DipDeepDeg: 30,
		WidthKm: 60, SubfaultKm: 30,
	})
	if err != nil {
		f.Fatal(err)
	}
	stations := []geom.Station{{Name: "NEAR", Pos: fault.Subfaults[0].Center}, geom.FullChileanStations()[0]}
	d := ComputeDistanceMatrices(fault, stations)
	cfg := GFConfig{Dt: 1, Nsamples: 16, VpKmS: 6.8, VsKmS: 3.9}
	direct, err := ComputeGreens(fault, stations, d, cfg)
	if err != nil {
		f.Fatal(err)
	}
	arrived := 0
	for _, row := range direct.params {
		for _, kp := range row {
			if int(kp.arr) < cfg.Nsamples {
				arrived++
			}
		}
	}
	if arrived == 0 || arrived == len(stations)*fault.NumSubfaults() {
		f.Fatalf("%d of %d arrivals inside the record; want some in and some after", arrived, len(stations)*fault.NumSubfaults())
	}
	var buf bytes.Buffer
	if err := npy.WriteRows(&buf, len(stations)*fault.NumSubfaults(), paramCols, func(i int) []float64 {
		kp := direct.params[i/direct.NSub][i%direct.NSub]
		return []float64{float64(kp.arr), kp.sa[0], kp.sa[1], kp.sa[2], kp.da[0], kp.da[1], kp.da[2]}
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	data := len(valid) - len(stations)*fault.NumSubfaults()*paramCols*8 // offset of row 0
	// with returns valid with float64 column col of row r set to v.
	with := func(r, col int, v float64) []byte {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint64(b[data+8*(r*paramCols+col):], math.Float64bits(v))
		return b
	}
	last := len(stations)*fault.NumSubfaults() - 1
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8])
	f.Add(append(append([]byte(nil), valid...), make([]byte, 8)...))
	f.Add([]byte("not an npy file"))
	wrongShape := bytes.Replace(valid, []byte(fmt.Sprintf("(%d, %d)", last+1, paramCols)),
		[]byte(fmt.Sprintf("(%d, %d)", paramCols, last+1)), 1)
	f.Add(wrongShape)
	for _, arr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), 0.5,
		float64(cfg.Nsamples), float64(cfg.Nsamples) + 1, 1e300} {
		f.Add(with(0, 0, arr))
		f.Add(with(last, 0, arr))
	}
	for col := 1; col < paramCols; col++ {
		f.Add(with(last/2, col, math.NaN()))
		f.Add(with(last/2, col, math.Inf(-1)))
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, fmt.Sprintf(gfNPYPattern, GFFingerprint(fault, stations, d, cfg)))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewGFCache(dir)
		g, hit, err := c.LoadOrCompute(fault, stations, d, cfg)
		if err != nil {
			t.Fatalf("LoadOrCompute: %v", err)
		}
		if !hit {
			requireSameSet(t, "recomputed", g, direct)
			repaired, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(repaired, valid) {
				t.Fatalf("a miss left %d bytes (err %v), want the %d bytes it computed", len(repaired), err, len(valid))
			}
			if _, hit, err := c.LoadOrCompute(fault, stations, d, cfg); err != nil || !hit {
				t.Fatalf("after repair: hit=%v err=%v, want a warm hit", hit, err)
			}
			return
		}
		if bytes.Equal(file, valid) {
			requireSameSet(t, "loaded", g, direct)
		}
		m, err := npy.Read(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("a hit on a file npy rejects: %v", err)
		}
		ref := referenceExpand(g)
		for s := range g.params {
			for sf, kp := range g.params[s] {
				row := m.Row(s*g.NSub + sf)
				if float64(kp.arr) != row[0] {
					t.Fatalf("station %d subfault %d: loaded arrival %d, file %v", s, sf, kp.arr, row[0])
				}
				amps := []float64{kp.sa[0], kp.sa[1], kp.sa[2], kp.da[0], kp.da[1], kp.da[2]}
				for i, v := range amps {
					if math.Float64bits(v) != math.Float64bits(row[1+i]) {
						t.Fatalf("station %d subfault %d column %d: loaded %v, file %v", s, sf, 1+i, v, row[1+i])
					}
				}
				want := ref.Kernel[s][sf]
				if wl := referenceLead(want); kp.lead != wl {
					t.Fatalf("station %d subfault %d: lead %d, reference %d", s, sf, kp.lead, wl)
				}
				k := g.kernels(s, sf)
				for c := range k {
					canonicalSamples(k[c])
					canonicalSamples(want[c])
					requireSameBits(t, fmt.Sprintf("kernel[%d][%d][%d]", s, sf, c), k[c], want[c])
				}
			}
		}
	})
}
