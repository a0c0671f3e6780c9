package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	// Santiago to Concepción is roughly 435 km.
	d := HaversineKm(LatLon{-33.45, -70.67}, LatLon{-36.83, -73.05})
	if d < 400 || d > 470 {
		t.Fatalf("Santiago–Concepción = %v km, want ~435", d)
	}
	// Zero distance.
	if d := HaversineKm(LatLon{-20, -70}, LatLon{-20, -70}); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	// One degree of latitude ≈ 111.19 km.
	d = HaversineKm(LatLon{0, 0}, LatLon{1, 0})
	if math.Abs(d-111.19) > 0.5 {
		t.Fatalf("1° latitude = %v km", d)
	}
}

func TestPropertyHaversineMetric(t *testing.T) {
	f := func(aLat, aLon, bLat, bLon int16) bool {
		a := LatLon{float64(aLat%90) / 1.01, float64(aLon % 180)}
		b := LatLon{float64(bLat%90) / 1.01, float64(bLon % 180)}
		dab := HaversineKm(a, b)
		dba := HaversineKm(b, a)
		if dab < 0 {
			return false
		}
		if math.Abs(dab-dba) > 1e-9 {
			return false // symmetry
		}
		// Bounded by half the circumference.
		return dab <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildFaultDefault(t *testing.T) {
	f, err := BuildFault(DefaultChileFault())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumSubfaults() != f.NAlong*f.NDown {
		t.Fatalf("subfault count %d != %d*%d", f.NumSubfaults(), f.NAlong, f.NDown)
	}
	// ~1000 km / 10 km and 200 km / 10 km.
	if f.NAlong < 80 || f.NAlong > 120 {
		t.Fatalf("NAlong = %d, want ~100", f.NAlong)
	}
	if f.NDown != 20 {
		t.Fatalf("NDown = %d, want 20", f.NDown)
	}
}

func TestFaultDepthIncreasesDownDip(t *testing.T) {
	f, err := BuildFault(DefaultChileFault())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.NAlong; i += 17 {
		prev := -1.0
		for j := 0; j < f.NDown; j++ {
			s := f.At(i, j)
			if s.DepthKm <= prev {
				t.Fatalf("depth not increasing at (%d,%d): %v <= %v", i, j, s.DepthKm, prev)
			}
			prev = s.DepthKm
		}
	}
}

func TestFaultDipWithinConfiguredRange(t *testing.T) {
	cfg := DefaultChileFault()
	f, err := BuildFault(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Subfaults {
		dip := f.Subfaults[i].DipDeg
		if dip < cfg.DipShallowDeg-1e-9 || dip > cfg.DipDeepDeg+1e-9 {
			t.Fatalf("dip %v outside [%v,%v]", dip, cfg.DipShallowDeg, cfg.DipDeepDeg)
		}
	}
}

func TestFaultIndexingConsistent(t *testing.T) {
	f, err := BuildFault(DefaultChileFault())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.NAlong; i++ {
		for j := 0; j < f.NDown; j++ {
			s := f.At(i, j)
			if s.Along != i || s.Down != j {
				t.Fatalf("At(%d,%d) returned subfault (%d,%d)", i, j, s.Along, s.Down)
			}
			if s.Index != i*f.NDown+j {
				t.Fatalf("Index %d at (%d,%d)", s.Index, i, j)
			}
		}
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	f, _ := BuildFault(DefaultChileFault())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range At")
		}
	}()
	f.At(f.NAlong, 0)
}

func TestBuildFaultValidation(t *testing.T) {
	cases := []ChileFaultConfig{
		{LatSouth: -30, LatNorth: -35, TrenchLon: -73, DipShallowDeg: 10, DipDeepDeg: 30, WidthKm: 200, SubfaultKm: 10},
		{LatSouth: -38, LatNorth: -29, TrenchLon: -73, DipShallowDeg: 10, DipDeepDeg: 30, WidthKm: 200, SubfaultKm: 0},
		{LatSouth: -38, LatNorth: -29, TrenchLon: -73, DipShallowDeg: 0, DipDeepDeg: 30, WidthKm: 200, SubfaultKm: 10},
		{LatSouth: -38, LatNorth: -29, TrenchLon: -73, DipShallowDeg: 40, DipDeepDeg: 30, WidthKm: 200, SubfaultKm: 10},
		{LatSouth: -38, LatNorth: -29, TrenchLon: -73, DipShallowDeg: 10, DipDeepDeg: 95, WidthKm: 200, SubfaultKm: 10},
	}
	for i, cfg := range cases {
		if _, err := BuildFault(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

func TestSubfaultDistanceSymmetricPositive(t *testing.T) {
	f, _ := BuildFault(DefaultChileFault())
	a := f.At(0, 0)
	b := f.At(f.NAlong-1, f.NDown-1)
	if d := a.DistanceKm(b); d <= 0 {
		t.Fatalf("distance = %v", d)
	}
	if math.Abs(a.DistanceKm(b)-b.DistanceKm(a)) > 1e-9 {
		t.Fatal("subfault distance asymmetric")
	}
	if a.DistanceKm(a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestSubfaultArea(t *testing.T) {
	s := Subfault{LengthKm: 10, WidthKm: 10}
	if s.AreaKm2() != 100 {
		t.Fatalf("area = %v", s.AreaKm2())
	}
}

func TestStationLists(t *testing.T) {
	full := FullChileanStations()
	small := SmallChileanStations()
	if len(full) != 121 {
		t.Fatalf("full list has %d stations, want 121", len(full))
	}
	if len(small) != 2 {
		t.Fatalf("small list has %d stations, want 2", len(small))
	}
	// The small list is a prefix of the full list (same stations).
	for i := range small {
		if small[i] != full[i] {
			t.Fatal("small list is not a prefix of the full list")
		}
	}
}

func TestStationNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range FullChileanStations() {
		if seen[s.Name] {
			t.Fatalf("duplicate station name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestStationsWithinChile(t *testing.T) {
	for _, s := range FullChileanStations() {
		if s.Pos.Lat > -17 || s.Pos.Lat < -41 {
			t.Fatalf("station %s latitude %v outside Chile", s.Name, s.Pos.Lat)
		}
		if s.Pos.Lon > -66 || s.Pos.Lon < -76 {
			t.Fatalf("station %s longitude %v outside Chile", s.Name, s.Pos.Lon)
		}
	}
}

func TestStationGenerationDeterministic(t *testing.T) {
	a := FullChileanStations()
	b := FullChileanStations()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("station generation not deterministic")
		}
	}
}

func TestChileanStationsZero(t *testing.T) {
	if got := chileanStations(0); got != nil {
		t.Fatalf("chileanStations(0) = %v, want nil", got)
	}
}

// SmallChileanStations returns the 2-station "small Chilean input" list.
func SmallChileanStations() []Station {
	return chileanStations(2)
}
