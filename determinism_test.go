package fdw_test

// Determinism under concurrency: the parallel linalg kernels and the
// covariance-factor cache must leave every scenario bit-identical by
// seed, whatever GOMAXPROCS says. This is the repo-level guard for the
// contract the kernel-level tests assert element by element.

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"fdw"
	"fdw/internal/mseed"
)

func sameBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: sample %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestScenarioDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const (
		seed     = 42
		targetMw = 8.1
		stations = 3
	)
	old := runtime.GOMAXPROCS(1)
	single, err := fdw.GenerateScenario(seed, targetMw, stations, "")
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	// The second run also exercises the warm covariance-cache path: the
	// first run left the factor in the shared cache.
	multi, err := fdw.GenerateScenario(seed, targetMw, stations, "")
	if err != nil {
		t.Fatal(err)
	}

	if single.Rupture.Hypocenter != multi.Rupture.Hypocenter {
		t.Fatalf("hypocenter %d vs %d", single.Rupture.Hypocenter, multi.Rupture.Hypocenter)
	}
	if single.Rupture.ActualMw != multi.Rupture.ActualMw {
		t.Fatalf("Mw %v vs %v", single.Rupture.ActualMw, multi.Rupture.ActualMw)
	}
	sameBits(t, "slip", single.Rupture.SlipM, multi.Rupture.SlipM)
	sameBits(t, "onsets", single.Rupture.OnsetS, multi.Rupture.OnsetS)
	sameBits(t, "rise", single.Rupture.RiseS, multi.Rupture.RiseS)
	if len(single.Waveforms) != len(multi.Waveforms) {
		t.Fatalf("waveform count %d vs %d", len(single.Waveforms), len(multi.Waveforms))
	}
	for i := range single.Waveforms {
		for c := 0; c < 3; c++ {
			sameBits(t, "waveform "+single.Waveforms[i].Station,
				single.Waveforms[i].ENZ[c], multi.Waveforms[i].ENZ[c])
		}
	}
}

// TestScenarioWaveformBytesPinned holds the SHA-256 of a scenario's
// waveforms encoded as miniSEED. The hashes were recorded before the
// table-driven Phase B and the bounds-check-free synthesis loop
// (DESIGN.md §14) replaced the naive kernels: a kernel rewrite that
// moves a single bit of any waveform sample fails here.
func TestScenarioWaveformBytesPinned(t *testing.T) {
	cases := []struct {
		seed     uint64
		mw       float64
		stations int
		sha256   string
	}{
		{42, 8.1, 3, "f05ebfc347c35f1beaf17bddbe86d08e6acbe300c0ae3bc1caa1389633a2e891"},
		{11, 8.8, 12, "aeb5ef93b30cdb09621c6cd3e0674447335b05a33d5843c726eff56432586ae5"},
	}
	for _, tc := range cases {
		sc, err := fdw.GenerateScenario(tc.seed, tc.mw, tc.stations, "")
		if err != nil {
			t.Fatal(err)
		}
		var recs []mseed.Record
		for i := range sc.Waveforms {
			recs = append(recs, sc.Waveforms[i].ToRecords()...)
		}
		h := sha256.New()
		if err := mseed.Write(h, recs); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("seed %d Mw %v stations %d: waveform miniSEED sha256 %s, want %s",
				tc.seed, tc.mw, tc.stations, got, tc.sha256)
		}
	}
}
