package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3}), 2, 1e-12, "Mean")
	approx(t, Mean(nil), 0, 0, "Mean(nil)")
}

func TestSD(t *testing.T) {
	// Population SD of {2,4,4,4,5,5,7,9} is exactly 2.
	approx(t, SD([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2, 1e-12, "SD")
	approx(t, SD([]float64{5}), 0, 0, "SD(single)")
	approx(t, SD(nil), 0, 0, "SD(nil)")
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	approx(t, Min(xs), -1, 0, "Min")
	approx(t, Max(xs), 7, 0, "Max")
	approx(t, Min(nil), 0, 0, "Min(nil)")
	approx(t, Max(nil), 0, 0, "Max(nil)")
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, Percentile(xs, 0), 1, 0, "P0")
	approx(t, Percentile(xs, 50), 3, 1e-12, "P50")
	approx(t, Percentile(xs, 100), 5, 0, "P100")
	approx(t, Percentile(xs, 25), 2, 1e-12, "P25")
	approx(t, Percentile(nil, 50), 0, 0, "P50(nil)")
	// Does not mutate input.
	ys := []float64{9, 1, 5}
	Percentile(ys, 50)
	if ys[0] != 9 || ys[1] != 1 || ys[2] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 3})
	if s.N != 2 {
		t.Fatalf("N = %d", s.N)
	}
	approx(t, s.Mean, 2, 1e-12, "Summary.Mean")
	approx(t, s.SD, 1, 1e-12, "Summary.SD")
	approx(t, s.Min, 1, 0, "Summary.Min")
	approx(t, s.Max, 3, 0, "Summary.Max")
}

func TestFormula1AvgTotalRuntime(t *testing.T) {
	// (r1+r2+r3)/3
	approx(t, AvgTotalRuntime([]float64{10, 20, 30}), 20, 1e-12, "formula (1)")
}

func TestFormula3MatchesDefinition(t *testing.T) {
	// (3): sum(d_i)/N over all DAGMans in all repetition batches.
	d := []float64{4, 6, 8, 6}
	approx(t, AvgRuntimeAcrossDAGMans(d), 6, 1e-12, "formula (3)")
}

func TestFormula5InstantThroughput(t *testing.T) {
	approx(t, InstantThroughput(30, 2), 15, 1e-12, "formula (5)")
	approx(t, InstantThroughput(30, 0), 0, 0, "formula (5) t=0")
}

func TestFormula6AvgInstantThroughput(t *testing.T) {
	approx(t, AvgInstantThroughput([]float64{0, 10, 20}), 10, 1e-12, "formula (6)")
}

func TestFormula7BurstCost(t *testing.T) {
	// Paper: $0.0017/min; 1000 VDC minutes => $1.70.
	approx(t, BurstCost(1000, 0.0017), 1.7, 1e-12, "formula (7)")
}

func TestPctChangeAndDecrease(t *testing.T) {
	approx(t, PctChange(10, 33.09), 230.9, 1e-9, "PctChange")
	approx(t, PctDecrease(100, 43.2), 56.8, 1e-9, "PctDecrease")
	approx(t, PctChange(0, 5), 0, 0, "PctChange zero base")
}

func TestPropertyMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return Mean(xs) == 0
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySDNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		return SD(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyShiftInvariance(t *testing.T) {
	// SD is invariant under constant shifts; Mean shifts by the constant.
	f := func(raw []int16, shiftRaw int16) bool {
		if len(raw) < 2 {
			return true
		}
		shift := float64(shiftRaw)
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
			ys[i] = float64(r) + shift
		}
		if math.Abs(SD(xs)-SD(ys)) > 1e-6 {
			return false
		}
		return math.Abs(Mean(ys)-Mean(xs)-shift) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
