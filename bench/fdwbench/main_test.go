package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec loads the metric lists BENCHMARK.json promises.
func readSpec(t *testing.T) (endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// emptyTempDir points os.TempDir at a fresh directory and returns a
// check that it is empty again.
func emptyTempDir(t *testing.T) func() {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	return func() {
		t.Helper()
		if left, _ := os.ReadDir(tmp); len(left) > 0 {
			t.Errorf("%d entries left in the temp dir, first %s", len(left), left[0].Name())
		}
	}
}

// TestSmoke runs one traced measured pass of every workload and checks
// what the benchmark promises of its output.
func TestSmoke(t *testing.T) {
	e2e, layers := readSpec(t)
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if strings.HasPrefix(w.name, "fq121") && (testing.Short() || raceEnabled) {
				t.Skip("743 MB of Green's functions; skipped with -short and -race")
			}
			checkTemp := emptyTempDir(t)
			r, err := runChild(w, 11, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			s := summarize(w.name, []*childResult{r}, r)
			if s.Failed > 0 {
				t.Errorf("%d of %d ops failed: %v", s.Failed, s.Attempted, s.Errors)
			}
			for _, c := range []struct {
				trace bool
				spec  []specMetric
			}{{false, e2e}, {true, layers}} {
				got := result([]*summary{s}, c.trace).Metrics
				if len(got) != len(c.spec) {
					t.Errorf("trace %t: %d metrics emitted, BENCHMARK.json lists %d", c.trace, len(got), len(c.spec))
				}
				for _, m := range c.spec {
					if v, ok := got[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("trace %t: metric %s emitted as %+v (present %t), want unit %s", c.trace, m.Name, v, ok, m.Unit)
					}
				}
				for name := range got {
					if !validName.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
				}
			}
			var shares float64
			for name, v := range s.PerLayer {
				if strings.HasSuffix(name, "cpu_share") {
					shares += v
				}
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("cpu_share sums to %v", shares)
			}
			if u := s.PerLayer["harness.unattributed_pct"]; u > 5 {
				t.Errorf("harness.unattributed_pct = %.2f, want <= 5", u)
			}
			checkTemp()
		})
	}
}

// TestPlantedReference plants a wrong reference digest: the scheduled
// campaign's ops must fail without aborting the run, the exit code must
// be non-zero, and no bundle directory may be left behind. Planted
// before the reference pass, set-up must fail.
func TestPlantedReference(t *testing.T) {
	w, err := workloadByName("sched-crash")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("measured", func(t *testing.T) {
		checkTemp := emptyTempDir(t)
		c, err := openChild(w, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		if err := c.reference(); err != nil {
			t.Fatal(err)
		}
		c.refs["report0"] ^= 1
		r, err := c.measure(0)
		if err != nil {
			t.Fatal(err)
		}
		s := summarize(w.name, []*childResult{r}, nil)
		if s.PerLayer["failed_ops_ratio"] <= 0 || len(s.Errors) == 0 {
			t.Errorf("failed_ops_ratio %v, errors %v: the planted digest went unnoticed", s.PerLayer["failed_ops_ratio"], s.Errors)
		}
		if exitCode([]*summary{s}) == 0 {
			t.Error("exit code 0 with failed ops")
		}
		checkTemp()
	})
	t.Run("set-up", func(t *testing.T) {
		checkTemp := emptyTempDir(t)
		c, err := openChild(w, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		c.refs["report0"] ^= 1
		if err := c.reference(); err == nil {
			t.Error("the reference pass accepted a report that differs from the unscheduled one")
		}
		c.close()
		checkTemp()
	})
}
