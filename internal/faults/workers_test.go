package faults

import (
	"strings"
	"testing"
)

func TestWorkerPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan WorkerPlan
		want string // substring of the expected error; "" = valid
	}{
		{"zero plan", WorkerPlan{}, ""},
		{"negative worker", WorkerPlan{Crashes: []WorkerCrash{{Worker: -1, AfterCells: 1}}}, "negative worker"},
		{"zero after-cells", WorkerPlan{Crashes: []WorkerCrash{{Worker: 0}}}, "AfterCells"},
		{"mid-cell and before-ack", WorkerPlan{Crashes: []WorkerCrash{{Worker: 0, AfterCells: 1, MidCell: true, BeforeAck: true}}}, "both"},
		{"negative restart", WorkerPlan{Crashes: []WorkerCrash{{Worker: 0, AfterCells: 1, RestartAfter: -1}}}, "RestartAfter"},
		{"negative blackout worker", WorkerPlan{Blackouts: []HeartbeatBlackout{{Worker: -2, Window: Window{From: 0, Until: 1}}}}, "negative worker"},
		{"inverted blackout window", WorkerPlan{Blackouts: []HeartbeatBlackout{{Worker: 0, Window: Window{From: 5, Until: 1}}}}, "window"},
		{"slow factor below one", WorkerPlan{Slow: []SlowWorker{{Worker: 0, Factor: 0.5}}}, "factor"},
		{"negative slow worker", WorkerPlan{Slow: []SlowWorker{{Worker: -1, Factor: 2}}}, "negative"},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestStandardWorkerPlans(t *testing.T) {
	plans := StandardWorkerPlans()
	if len(plans) == 0 {
		t.Fatal("no standard worker plans")
	}
	if plans[0].Name != "none" || !plans[0].Empty() {
		t.Fatalf("first plan is %q (empty=%t), want an empty none", plans[0].Name, plans[0].Empty())
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if p.Name == "" {
			t.Error("standard plan without a name")
		}
		if seen[p.Name] {
			t.Errorf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("plan %q does not validate: %v", p.Name, err)
		}
		if p.Name != "none" && p.Empty() {
			t.Errorf("plan %q injects nothing", p.Name)
		}
	}
}

func TestWorkerPlanByName(t *testing.T) {
	for _, name := range []string{"", "none"} {
		p, err := WorkerPlanByName(name)
		if err != nil || !p.Empty() {
			t.Errorf("WorkerPlanByName(%q) = %+v, %v", name, p, err)
		}
	}
	p, err := WorkerPlanByName("crash-before-ack")
	if err != nil || len(p.Crashes) != 1 || !p.Crashes[0].BeforeAck {
		t.Errorf("WorkerPlanByName(crash-before-ack) = %+v, %v", p, err)
	}
	if _, err := WorkerPlanByName("no-such-plan"); err == nil || !strings.Contains(err.Error(), "crash-early") {
		t.Errorf("unknown plan error should list available names, got %v", err)
	}
}

// Empty reports whether the plan injects nothing.
func (p WorkerPlan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Blackouts) == 0 && len(p.Slow) == 0
}
