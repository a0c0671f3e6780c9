package fakequakes

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"fdw/internal/sim"
)

func TestRuptRoundTrip(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, err := NewGenerator(f, d)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.GenerateMw("run000042", 8.1, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRupt(&buf, f, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRupt(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "run000042" {
		t.Fatalf("ID %q", got.ID)
	}
	if math.Abs(got.ActualMw-r.ActualMw) > 1e-3 {
		t.Fatalf("Mw %v, want %v", got.ActualMw, r.ActualMw)
	}
	if got.Hypocenter != r.Hypocenter {
		t.Fatalf("hypocenter %d, want %d", got.Hypocenter, r.Hypocenter)
	}
	// Non-zero-slip subfaults must round-trip exactly (taper can zero a
	// handful of patch edges, so compare via maps).
	want := map[int]float64{}
	for k, idx := range r.Patch {
		if r.SlipM[k] != 0 {
			want[idx] = r.SlipM[k]
		}
	}
	if len(got.Patch) != len(want) {
		t.Fatalf("patch %d subfaults, want %d", len(got.Patch), len(want))
	}
	for k, idx := range got.Patch {
		if math.Abs(got.SlipM[k]-want[idx]) > 1e-5 {
			t.Fatalf("subfault %d slip %v, want %v", idx, got.SlipM[k], want[idx])
		}
	}
}

func TestRuptMomentPreserved(t *testing.T) {
	f, _, d := smallSetup(t, 2)
	g, _ := NewGenerator(f, d)
	r, err := g.GenerateMw("m", 8.4, sim.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRupt(&buf, f, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRupt(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	var m0 float64
	for k, idx := range got.Patch {
		m0 += ShearModulusPa * f.Subfaults[idx].AreaKm2() * 1e6 * got.SlipM[k]
	}
	if mw := Magnitude(m0); math.Abs(mw-8.4) > 0.03 {
		t.Fatalf("moment magnitude after round trip %v, want ≈8.4", mw)
	}
}

func TestReadRuptErrors(t *testing.T) {
	f, _, _ := smallSetup(t, 1)
	cases := map[string]string{
		"empty":       "",
		"short row":   "1 2 3\n",
		"bad number":  "x\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0\t3e10\n",
		"bad slip":    "1\t0\t0\t0\t0\t0\t0\t0\tzz\t1\t0\t3e10\n",
		"out of mesh": "99999\t0\t0\t0\t0\t0\t0\t0\t0\t1\t0\t3e10\n",
		"no slip":     "1\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\t3e10\n",
	}
	for name, src := range cases {
		if _, err := ReadRupt(strings.NewReader(src), f); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := ReadRupt(strings.NewReader("x"), nil); err == nil {
		t.Fatal("nil fault accepted")
	}
}

// TestReadRuptRejectsHostileValues pins the fix for .rupt files whose
// values used to be accepted and then crashed synthesis: a negative
// rupture time became a negative sample index inside a station
// goroutine. Each bad value is now an error naming its line and column.
func TestReadRuptRejectsHostileValues(t *testing.T) {
	f, stations, d := smallSetup(t, 1)
	row := func(no int, rise, ss, ds, onset string) string {
		return fmt.Sprintf("%d\t0\t0\t10\t0\t15\t%s\t%s\t%s\t%s\t%s\t3e10\n", no, rise, rise, ss, ds, onset)
	}
	good := "# header\n" + row(1, "2", "0", "1", "0")
	cases := []struct {
		name, src, want string
	}{
		{"negative onset", good + row(2, "2", "0", "1", "-5"), "line 3 column 11: negative time -5"},
		{"NaN onset", good + row(2, "2", "0", "1", "NaN"), `line 3 column 11: non-finite value "NaN"`},
		{"infinite onset", good + row(2, "2", "0", "1", "+Inf"), `line 3 column 11: non-finite value "+Inf"`},
		{"negative rise", good + row(2, "-1", "0", "1", "3"), "line 3 column 7: negative time -1"},
		{"infinite rise", good + row(2, "inf", "0", "1", "3"), `line 3 column 7: non-finite value "inf"`},
		{"NaN slip", good + row(2, "2", "0", "nan", "3"), `line 3 column 10: non-finite value "nan"`},
		{"infinite slip", good + row(2, "2", "-Inf", "1", "3"), `line 3 column 9: non-finite value "-Inf"`},
		{"overflowing slip", good + row(2, "2", "1e308", "1e308", "3"), "line 3 columns 9-10: total slip overflows"},
		{"negative onset, zero slip", good + row(2, "2", "0", "0", "-1"), "line 3 column 11: negative time -1"},
		{"duplicate row", good + row(2, "2", "0", "1", "3") + row(1, "2", "0", "1", "4"), "line 4 column 1: subfault 1 repeats line 2"},
	}
	for _, tc := range cases {
		_, err := ReadRupt(strings.NewReader(tc.src), f)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// The valid prefix alone still decodes and synthesizes.
	r, err := ReadRupt(strings.NewReader(good), f)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := ComputeGreens(f, stations, d, GFConfig{Dt: 1, Nsamples: 16, VpKmS: 6.8, VsKmS: 3.9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SynthesizeWaveforms(r, gf, NoiseConfig{}, sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRuptValidation(t *testing.T) {
	f, _, _ := smallSetup(t, 1)
	var buf bytes.Buffer
	if err := WriteRupt(&buf, f, nil); err == nil {
		t.Fatal("nil rupture accepted")
	}
	if err := WriteRupt(&buf, nil, &Rupture{}); err == nil {
		t.Fatal("nil fault accepted")
	}
}

func TestRuptRowPerSubfault(t *testing.T) {
	f, _, d := smallSetup(t, 1)
	g, _ := NewGenerator(f, d)
	r, err := g.GenerateMw("m", 7.9, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRupt(&buf, f, r); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(buf.String(), "\n") {
		l = strings.TrimSpace(l)
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if lines != f.NumSubfaults() {
		t.Fatalf("%d rows, want one per subfault (%d)", lines, f.NumSubfaults())
	}
}
