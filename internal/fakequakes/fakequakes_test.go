package fakequakes

import (
	"math"
	"os"
	"testing"
	"testing/quick"

	"fdw/internal/geom"
	"fdw/internal/sim"
)

// smallFault returns a compact mesh for fast tests.
func smallFault(t testing.TB) *geom.Fault {
	t.Helper()
	cfg := geom.ChileFaultConfig{
		LatSouth: -36, LatNorth: -33,
		TrenchLon: -73.5, TrenchLonSlope: 0.15,
		DipShallowDeg: 10, DipDeepDeg: 30,
		WidthKm: 120, SubfaultKm: 15,
	}
	f, err := geom.BuildFault(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func smallSetup(t testing.TB, nStations int) (*geom.Fault, []geom.Station, *DistanceMatrices) {
	t.Helper()
	f := smallFault(t)
	stations := geom.FullChileanStations()[:nStations]
	d := ComputeDistanceMatrices(f, stations)
	return f, stations, d
}

func TestMomentMagnitudeInverse(t *testing.T) {
	for _, mw := range []float64{6.5, 7.5, 8.1, 9.0} {
		if got := Magnitude(Moment(mw)); math.Abs(got-mw) > 1e-9 {
			t.Fatalf("Magnitude(Moment(%v)) = %v", mw, got)
		}
	}
	// Hanks & Kanamori: Mw 9.0 ≈ 3.98e22 N·m.
	if m0 := Moment(9.0); math.Abs(m0-3.98e22)/3.98e22 > 0.01 {
		t.Fatalf("Moment(9.0) = %v", m0)
	}
	if !math.IsInf(Magnitude(0), -1) {
		t.Fatal("Magnitude(0) should be -Inf")
	}
}

func TestScalingLawMonotone(t *testing.T) {
	prev := ScalingLaw(7.0)
	for mw := 7.2; mw <= 9.4; mw += 0.2 {
		d := ScalingLaw(mw)
		if d.LengthKm <= prev.LengthKm || d.WidthKm <= prev.WidthKm {
			t.Fatalf("scaling law not monotone at Mw %.1f", mw)
		}
		prev = d
	}
	// Blaser 2010: Mw 8 interface events are roughly 150–200 km long.
	d := ScalingLaw(8.0)
	if d.LengthKm < 100 || d.LengthKm > 250 {
		t.Fatalf("Mw 8 length = %v km", d.LengthKm)
	}
}

func TestMeanSlip(t *testing.T) {
	// Mw 8 over 150x70 km²: slip of a few meters.
	s, err := MeanSlip(8.0, 150*70)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 || s > 10 {
		t.Fatalf("Mw 8 mean slip = %v m", s)
	}
	if _, err := MeanSlip(8, 0); err == nil {
		t.Fatal("zero area accepted")
	}
}

func TestRiseTime(t *testing.T) {
	if RiseTime(0) != 1 {
		t.Fatal("zero slip should floor rise time at 1 s")
	}
	if RiseTime(8) <= RiseTime(1) {
		t.Fatal("rise time should grow with slip")
	}
}

func TestRuptureVelocitySlowsShallow(t *testing.T) {
	if !(RuptureVelocity(5) < RuptureVelocity(15) && RuptureVelocity(15) < RuptureVelocity(40)) {
		t.Fatal("rupture velocity should increase with depth")
	}
}

func TestDistanceMatricesProperties(t *testing.T) {
	f, stations, d := smallSetup(t, 5)
	n := f.NumSubfaults()
	if err := d.Validate(n, len(stations)); err != nil {
		t.Fatal(err)
	}
	// Symmetric with zero diagonal.
	for i := 0; i < n; i += 7 {
		if d.Subfault.At(i, i) != 0 {
			t.Fatal("nonzero diagonal")
		}
		for j := 0; j < n; j += 11 {
			if d.Subfault.At(i, j) != d.Subfault.At(j, i) {
				t.Fatal("asymmetric subfault distances")
			}
			if i != j && d.Subfault.At(i, j) <= 0 {
				t.Fatal("non-positive off-diagonal distance")
			}
		}
	}
}

func TestDistanceMatricesSaveLoad(t *testing.T) {
	_, _, d := smallSetup(t, 3)
	dir := t.TempDir()
	if err := d.save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := loadDistanceMatrices(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Subfault.Rows != d.Subfault.Rows || got.Station.Rows != d.Station.Rows {
		t.Fatal("shapes changed through save/load")
	}
	for i := range d.Subfault.Data {
		if got.Subfault.Data[i] != d.Subfault.Data[i] {
			t.Fatal("subfault matrix changed through save/load")
		}
	}
}

func TestLoadDistanceMatricesMissing(t *testing.T) {
	_, err := loadDistanceMatrices(t.TempDir())
	if err == nil {
		t.Fatal("missing files accepted")
	}
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want IsNotExist", err)
	}
}

func TestValidateShapeMismatch(t *testing.T) {
	_, _, d := smallSetup(t, 3)
	if err := d.Validate(d.Subfault.Rows+1, 3); err == nil {
		t.Fatal("wrong subfault count accepted")
	}
	if err := d.Validate(d.Subfault.Rows, 4); err == nil {
		t.Fatal("wrong station count accepted")
	}
}

func TestGenerateRupture(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, err := NewGenerator(f, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	r, err := g.GenerateMw("run000001", 8.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "run000001" || r.TargetMw != 8.0 {
		t.Fatal("rupture metadata wrong")
	}
	if len(r.Patch) == 0 || len(r.Patch) != len(r.SlipM) {
		t.Fatal("patch arrays inconsistent")
	}
	// Moment rescaling must hit the target magnitude closely.
	if math.Abs(r.ActualMw-8.0) > 0.02 {
		t.Fatalf("actual Mw %v, want ≈8.0", r.ActualMw)
	}
	for _, s := range r.SlipM {
		if s < 0 || math.IsNaN(s) {
			t.Fatalf("bad slip %v", s)
		}
	}
	for _, o := range r.OnsetS {
		if o < 0 {
			t.Fatalf("negative onset %v", o)
		}
	}
	if r.Duration() <= 0 {
		t.Fatal("non-positive rupture duration")
	}
	if r.MaxSlip() <= 0 {
		t.Fatal("non-positive max slip")
	}
}

func TestGenerateMagnitudeRange(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	g.MinMw, g.MaxMw = 7.8, 8.6
	rng := sim.NewRNG(7)
	for i := 0; i < 10; i++ {
		r, err := g.Generate("r", rng)
		if err != nil {
			t.Fatal(err)
		}
		if r.TargetMw < 7.8 || r.TargetMw >= 8.6 {
			t.Fatalf("target Mw %v outside configured range", r.TargetMw)
		}
	}
}

func TestGenerateRejectsAbsurdMw(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	rng := sim.NewRNG(1)
	if _, err := g.GenerateMw("x", 5.0, rng); err == nil {
		t.Fatal("Mw 5 accepted")
	}
	if _, err := g.GenerateMw("x", 10.0, rng); err == nil {
		t.Fatal("Mw 10 accepted")
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	r1, err := g.GenerateMw("a", 8.2, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.GenerateMw("a", 8.2, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hypocenter != r2.Hypocenter || len(r1.Patch) != len(r2.Patch) {
		t.Fatal("same seed, different rupture")
	}
	for i := range r1.SlipM {
		if r1.SlipM[i] != r2.SlipM[i] {
			t.Fatal("same seed, different slip")
		}
	}
}

func TestPropertyRuptureMomentMatchesTarget(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	rng := sim.NewRNG(5)
	fn := func(seed uint64, mwRaw uint8) bool {
		mw := 7.6 + float64(mwRaw%14)/10 // 7.6..8.9
		r, err := g.GenerateMw("p", mw, rng.Split(seed))
		if err != nil {
			return false
		}
		return math.Abs(r.ActualMw-mw) < 0.02
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelString(t *testing.T) {
	if Exponential.String() != "exponential" || Gaussian.String() != "gaussian" ||
		VonKarmanApprox.String() != "vonKarman" {
		t.Fatal("kernel names wrong")
	}
	if Kernel(99).String() == "" {
		t.Fatal("unknown kernel should still format")
	}
}

func TestKernelValuesDecay(t *testing.T) {
	for _, k := range []Kernel{Exponential, Gaussian, VonKarmanApprox} {
		if k.value(0) < 0.999 {
			t.Fatalf("%v kernel at 0 = %v, want 1", k, k.value(0))
		}
		if !(k.value(0.5) > k.value(1) && k.value(1) > k.value(3)) {
			t.Fatalf("%v kernel not decaying", k)
		}
	}
}

func TestGreensFunctionsShape(t *testing.T) {
	f, stations, d := smallSetup(t, 3)
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 64, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(gf.params) != 3 {
		t.Fatalf("station dim %d", len(gf.params))
	}
	if len(gf.params[0]) != f.NumSubfaults() {
		t.Fatalf("subfault dim %d", len(gf.params[0]))
	}
	for c, k := range gf.kernels(0, 0) {
		if len(k) != 64 {
			t.Fatalf("component %d sample dim %d", c, len(k))
		}
	}
}

func TestGreensStaticOffsetPersists(t *testing.T) {
	f, stations, d := smallSetup(t, 1)
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 256, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	// The vertical kernel should settle at a nonzero static level.
	k := gf.kernels(0, 0)[2]
	tail := k[len(k)-1]
	if tail == 0 {
		t.Fatal("no static offset in GF tail")
	}
	if math.Abs(k[len(k)-2]-tail) > math.Abs(tail)*0.05 {
		t.Fatal("GF tail not settled")
	}
}

func TestGreensCloserStationLargerAmplitude(t *testing.T) {
	f := smallFault(t)
	near := geom.Station{Name: "NEAR", Pos: f.Subfaults[0].Center}
	far := geom.Station{Name: "FARR", Pos: geom.LatLon{Lat: -20, Lon: -69}}
	stations := []geom.Station{near, far}
	d := ComputeDistanceMatrices(f, stations)
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 128, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	amp := func(s int) float64 {
		var m float64
		for c := 0; c < 3; c++ {
			for _, v := range gf.kernels(s, 0)[c] {
				if a := math.Abs(v); a > m {
					m = a
				}
			}
		}
		return m
	}
	if amp(0) <= amp(1) {
		t.Fatalf("near station amplitude %v <= far %v", amp(0), amp(1))
	}
}

func TestGFConfigValidate(t *testing.T) {
	bad := []GFConfig{
		{Dt: 0, Nsamples: 10, VpKmS: 6, VsKmS: 3},
		{Dt: 1, Nsamples: 0, VpKmS: 6, VsKmS: 3},
		{Dt: 1, Nsamples: 10, VpKmS: 3, VsKmS: 3},
		{Dt: 1, Nsamples: 10, VpKmS: 6, VsKmS: 0},
		{Dt: math.NaN(), Nsamples: 10, VpKmS: 6, VsKmS: 3},
		{Dt: math.Inf(1), Nsamples: 10, VpKmS: 6, VsKmS: 3},
		{Dt: 1, Nsamples: 10, VpKmS: math.NaN(), VsKmS: 3},
		{Dt: 1, Nsamples: 10, VpKmS: math.Inf(1), VsKmS: 3},
		{Dt: 1, Nsamples: 10, VpKmS: 6, VsKmS: math.NaN()},
		{Dt: 1, Nsamples: 1 << 31, VpKmS: 6, VsKmS: 3},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := DefaultGFConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGreensToRecords(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 32, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gf.ToRecords(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*3 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	if _, err := gf.ToRecords(-1); err == nil {
		t.Fatal("negative subfault accepted")
	}
}

func TestSynthesizeWaveforms(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	rng := sim.NewRNG(3)
	r, err := g.GenerateMw("run0", 8.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 128, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	wfs, err := SynthesizeWaveforms(r, gf, NoiseConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(wfs) != 2 {
		t.Fatalf("got %d waveforms, want 2", len(wfs))
	}
	for _, w := range wfs {
		if w.PGD() <= 0 {
			t.Fatalf("station %s PGD = %v, want > 0", w.Station, w.PGD())
		}
		recs := w.ToRecords()
		if len(recs) != 3 {
			t.Fatal("waveform should make 3 records")
		}
	}
}

func TestSynthesizeNoiseAddsVariance(t *testing.T) {
	f, stations, d := smallSetup(t, 1)
	g, _ := NewGenerator(f, d)
	r, err := g.GenerateMw("run0", 7.8, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 64, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := SynthesizeWaveforms(r, gf, NoiseConfig{}, sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := SynthesizeWaveforms(r, gf, DefaultNoise(), sim.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for t0 := range clean[0].ENZ[0] {
		diff += math.Abs(noisy[0].ENZ[0][t0] - clean[0].ENZ[0][t0])
	}
	if diff == 0 {
		t.Fatal("noise had no effect")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	f, stations, d := smallSetup(t, 1)
	gf, _ := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 16, VpKmS: 6.8, VsKmS: 3.9})
	rng := sim.NewRNG(1)
	if _, err := SynthesizeWaveforms(nil, gf, NoiseConfig{}, rng); err == nil {
		t.Fatal("nil rupture accepted")
	}
	bad := &Rupture{Patch: []int{0, 1}, SlipM: []float64{1}, OnsetS: []float64{0, 0}, RiseS: []float64{1, 1}}
	if _, err := SynthesizeWaveforms(bad, gf, NoiseConfig{}, rng); err == nil {
		t.Fatal("inconsistent rupture accepted")
	}
	oob := &Rupture{Patch: []int{gf.NSub + 5}, SlipM: []float64{1}, OnsetS: []float64{0}, RiseS: []float64{1}}
	if _, err := SynthesizeWaveforms(oob, gf, NoiseConfig{}, rng); err == nil {
		t.Fatal("out-of-bounds patch accepted")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	if _, err := NewGenerator(nil, d); err == nil {
		t.Fatal("nil fault accepted")
	}
	if _, err := NewGenerator(f, nil); err == nil {
		t.Fatal("nil distances accepted")
	}
}

func TestSynthesisDeterministicUnderParallelism(t *testing.T) {
	// The station fan-out must not change results run to run: RNG
	// streams are split per station before goroutines spawn.
	f, stations, d := smallSetup(t, 4)
	g, _ := NewGenerator(f, d)
	r, err := g.GenerateMw("par", 8.0, sim.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 64, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SynthesizeWaveforms(r, gf, DefaultNoise(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeWaveforms(r, gf, DefaultNoise(), sim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for s := range a {
		for c := 0; c < 3; c++ {
			for i := range a[s].ENZ[c] {
				if a[s].ENZ[c][i] != b[s].ENZ[c][i] {
					t.Fatalf("station %d comp %d sample %d differs across runs", s, c, i)
				}
			}
		}
	}
}

func BenchmarkComputeGreensParallel(b *testing.B) {
	f, stations, d := smallSetup(b, 8)
	cfg := GFConfig{Dt: 1, Nsamples: 256, VpKmS: 6.8, VsKmS: 3.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeGreens(f, stations, d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistanceMatrices(b *testing.B) {
	f := smallFault(b)
	stations := geom.FullChileanStations()[:8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeDistanceMatrices(f, stations)
	}
}

func BenchmarkGenerateRupture(b *testing.B) {
	f, _, d := smallSetup(b, 2)
	g, _ := NewGenerator(f, d)
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateMw("bench", 8.2, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGreensEdgeCases pins ToRecords to the linalg convention — data-shaped problems are errors, never
// panics, and empty station/subfault sets are valid degenerate inputs.
func TestGreensEdgeCases(t *testing.T) {
	f, stations, d := smallSetup(t, 2)
	cfg := GFConfig{Dt: 1, Nsamples: 16, VpKmS: 6.8, VsKmS: 3.9}
	good, err := ComputeGreens(f, stations, d, cfg)
	if err != nil {
		t.Fatal(err)
	}

	truncKernel := *good
	truncKernel.params = good.params[:1] // one station's row missing
	shortStation := *good
	shortStation.params = [][]kernelParams{good.params[0], good.params[1][:good.NSub-1]}
	empty := newGreens(cfg, nil, 0)

	cases := []struct {
		name     string
		g        *GreensFunctions
		subfault int
		wantErr  bool
	}{
		{"valid", good, 0, false},
		{"last subfault", good, good.NSub - 1, false},
		{"negative subfault", good, -1, true},
		{"subfault == NSub", good, good.NSub, true},
		{"subfault beyond", good, good.NSub + 7, true},
		{"kernel missing a station", &truncKernel, 0, true},
		{"station kernel short a subfault", &shortStation, 0, true},
		{"empty set, subfault 0", empty, 0, true}, // 0 out of 0 subfaults
	}
	for _, tc := range cases {
		recs, err := tc.g.ToRecords(tc.subfault)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: ToRecords returned no error", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: ToRecords: %v", tc.name, err)
			continue
		}
		if len(recs) != len(tc.g.Stations)*3 {
			t.Errorf("%s: %d records, want %d", tc.name, len(recs), len(tc.g.Stations)*3)
		}
	}

	// An empty station list is the valid degenerate case: zero records,
	// zero bytes, no errors.
	noStations := newGreens(cfg, nil, 2)
	recs, err := noStations.ToRecords(1)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty stations: recs=%d err=%v, want 0 records no error", len(recs), err)
	}
}
