// Package geom models the source geometry the paper's experiments use:
// a Slab2-style Chilean subduction-zone fault mesh (Hayes et al. 2018)
// and the Chilean GNSS station network (121 stations for the "full
// Chilean input", 2 for the "small Chilean input").
//
// Real Slab2 grids are proprietary-format USGS products; per the
// substitution rule we synthesize a geometrically faithful equivalent:
// a north–south trench with dip steepening down-dip, discretized into
// rectangular subfaults, plus a coastal station network with realistic
// spacing. All generation is deterministic.
package geom

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for geodesy.
const EarthRadiusKm = 6371.0

// LatLon is a geographic coordinate in degrees.
type LatLon struct {
	Lat, Lon float64
}

// HaversineKm returns the great-circle distance between a and b in km.
func HaversineKm(a, b LatLon) float64 {
	const deg = math.Pi / 180
	dLat := (b.Lat - a.Lat) * deg
	dLon := (b.Lon - a.Lon) * deg
	la1 := a.Lat * deg
	la2 := b.Lat * deg
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Subfault is one rectangular patch of the discretized fault plane.
type Subfault struct {
	Index     int     // position in Fault.Subfaults
	Along     int     // along-strike cell index (south → north)
	Down      int     // down-dip cell index (trench → depth)
	Center    LatLon  // surface-projected center
	DepthKm   float64 // center depth
	StrikeDeg float64
	DipDeg    float64
	LengthKm  float64 // along strike
	WidthKm   float64 // along dip
}

// AreaKm2 returns the subfault's area.
func (s *Subfault) AreaKm2() float64 { return s.LengthKm * s.WidthKm }

// DistanceKm returns the approximate 3-D distance between the centers
// of two subfaults, combining great-circle surface distance with the
// depth difference.
func (s *Subfault) DistanceKm(o *Subfault) float64 {
	surf := HaversineKm(s.Center, o.Center)
	dz := s.DepthKm - o.DepthKm
	return math.Sqrt(surf*surf + dz*dz)
}

// Fault is a discretized fault surface.
type Fault struct {
	Name        string
	NAlong      int // number of cells along strike
	NDown       int // number of cells down dip
	Subfaults   []Subfault
	SubfaultLen float64 // km, along strike
	SubfaultWid float64 // km, along dip
}

// NumSubfaults returns len(f.Subfaults).
func (f *Fault) NumSubfaults() int { return len(f.Subfaults) }

// At returns the subfault at along-strike index i and down-dip index j.
func (f *Fault) At(i, j int) *Subfault {
	if i < 0 || i >= f.NAlong || j < 0 || j >= f.NDown {
		panic(fmt.Sprintf("geom: subfault (%d,%d) out of %dx%d", i, j, f.NAlong, f.NDown))
	}
	return &f.Subfaults[i*f.NDown+j]
}

// ChileFaultConfig parameterizes the synthetic Chilean megathrust mesh.
type ChileFaultConfig struct {
	LatSouth, LatNorth float64 // trench extent, degrees
	TrenchLon          float64 // trench longitude at LatSouth
	TrenchLonSlope     float64 // degrees of longitude per degree of latitude
	DipShallowDeg      float64 // dip at the trench
	DipDeepDeg         float64 // dip at the bottom of the seismogenic zone
	WidthKm            float64 // down-dip seismogenic width
	SubfaultKm         float64 // target subfault edge length
}

// DefaultChileFault mirrors the scale of the Chilean subduction interface
// used by MudPy's Chile model: roughly 1,000 km along strike from the
// 2014 Iquique region south past the 2010 Maule region, ~200 km of
// seismogenic width, 10 km subfaults.
func DefaultChileFault() ChileFaultConfig {
	return ChileFaultConfig{
		LatSouth:       -38.0,
		LatNorth:       -29.0,
		TrenchLon:      -73.5,
		TrenchLonSlope: 0.15,
		DipShallowDeg:  10,
		DipDeepDeg:     30,
		WidthKm:        200,
		SubfaultKm:     10,
	}
}

// BuildFault discretizes the configured slab geometry.
func BuildFault(cfg ChileFaultConfig) (*Fault, error) {
	if cfg.LatNorth <= cfg.LatSouth {
		return nil, fmt.Errorf("geom: LatNorth %v must exceed LatSouth %v", cfg.LatNorth, cfg.LatSouth)
	}
	if cfg.SubfaultKm <= 0 || cfg.WidthKm <= 0 {
		return nil, fmt.Errorf("geom: non-positive subfault (%v km) or width (%v km)", cfg.SubfaultKm, cfg.WidthKm)
	}
	if cfg.DipShallowDeg <= 0 || cfg.DipDeepDeg < cfg.DipShallowDeg || cfg.DipDeepDeg >= 90 {
		return nil, fmt.Errorf("geom: invalid dip range [%v, %v]", cfg.DipShallowDeg, cfg.DipDeepDeg)
	}
	lengthKm := (cfg.LatNorth - cfg.LatSouth) * 111.19 // km per degree latitude
	nAlong := int(math.Round(lengthKm / cfg.SubfaultKm))
	nDown := int(math.Round(cfg.WidthKm / cfg.SubfaultKm))
	if nAlong < 1 || nDown < 1 {
		return nil, fmt.Errorf("geom: degenerate mesh %dx%d", nAlong, nDown)
	}
	f := &Fault{
		Name:        "chile-megathrust",
		NAlong:      nAlong,
		NDown:       nDown,
		Subfaults:   make([]Subfault, 0, nAlong*nDown),
		SubfaultLen: lengthKm / float64(nAlong),
		SubfaultWid: cfg.WidthKm / float64(nDown),
	}
	const deg = math.Pi / 180
	for i := 0; i < nAlong; i++ {
		latFrac := (float64(i) + 0.5) / float64(nAlong)
		lat := cfg.LatSouth + latFrac*(cfg.LatNorth-cfg.LatSouth)
		trenchLon := cfg.TrenchLon + cfg.TrenchLonSlope*(lat-cfg.LatSouth)
		// Strike follows the local trench azimuth: due north plus the
		// longitude drift.
		strike := math.Mod(360-math.Atan(cfg.TrenchLonSlope)/deg, 360)
		depth := 0.0
		horizKm := 0.0
		for j := 0; j < nDown; j++ {
			dipFrac := (float64(j) + 0.5) / float64(nDown)
			dip := cfg.DipShallowDeg + dipFrac*(cfg.DipDeepDeg-cfg.DipShallowDeg)
			// Advance half a cell with the previous dip, half with this one,
			// to integrate the curved profile.
			depth += f.SubfaultWid * math.Sin(dip*deg)
			horizKm += f.SubfaultWid * math.Cos(dip*deg)
			kmPerLonDeg := 111.19 * math.Cos(lat*deg)
			center := LatLon{Lat: lat, Lon: trenchLon + horizKm/kmPerLonDeg}
			f.Subfaults = append(f.Subfaults, Subfault{
				Index:     len(f.Subfaults),
				Along:     i,
				Down:      j,
				Center:    center,
				DepthKm:   depth - 0.5*f.SubfaultWid*math.Sin(dip*deg),
				StrikeDeg: strike,
				DipDeg:    dip,
				LengthKm:  f.SubfaultLen,
				WidthKm:   f.SubfaultWid,
			})
		}
	}
	return f, nil
}

// Station is a GNSS station with high-rate displacement capability.
type Station struct {
	Name string
	Pos  LatLon
}

// chileanCores are real Chilean GNSS station codes used to seed the
// synthetic network with recognizable names; the remainder are generated
// with the same coastal distribution.
var chileanCores = []Station{
	{"ANTC", LatLon{-37.34, -71.53}},
	{"CONZ", LatLon{-36.84, -73.03}},
	{"CNBA", LatLon{-31.40, -71.46}},
	{"VALP", LatLon{-33.03, -71.63}},
	{"SANT", LatLon{-33.15, -70.67}},
	{"IQQE", LatLon{-20.27, -70.13}},
	{"PTRO", LatLon{-24.89, -70.48}},
	{"CRZL", LatLon{-23.47, -70.57}},
	{"JRGN", LatLon{-23.29, -70.56}},
	{"PFRJ", LatLon{-30.67, -71.63}},
	{"LVIL", LatLon{-31.91, -71.51}},
	{"PEDR", LatLon{-33.89, -71.77}},
}

// FullChileanStations returns the 121-station "full Chilean input" list.
// The first entries are real station codes; the rest are synthetic
// coastal stations spaced to mimic the dense post-2010 network.
func FullChileanStations() []Station {
	return chileanStations(121)
}

// chileanStations deterministically generates n stations along the
// Chilean coast between 18°S and 40°S.
func chileanStations(n int) []Station {
	if n <= 0 {
		return nil
	}
	out := make([]Station, 0, n)
	for i := 0; i < n && i < len(chileanCores); i++ {
		out = append(out, chileanCores[i])
	}
	// Low-discrepancy fill along the coast (golden-ratio sequence keeps
	// spacing even for any n without randomness).
	const phi = 0.6180339887498949
	for i := len(out); i < n; i++ {
		u := math.Mod(float64(i)*phi, 1)
		lat := -18.0 - u*22.0 // 18°S .. 40°S
		// Coastline longitude drifts east as latitude decreases in
		// magnitude; add a small deterministic zigzag for inland sites.
		lon := -70.2 - 0.16*(-(lat)-18.0) + 0.7*math.Sin(float64(i)*1.7)
		out = append(out, Station{
			Name: fmt.Sprintf("CH%02d%c", i%100, 'A'+byte(i%26)),
			Pos:  LatLon{Lat: lat, Lon: lon},
		})
	}
	return out
}
