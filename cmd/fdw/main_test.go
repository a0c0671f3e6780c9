package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWithFlags(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.log")
	traceDir := filepath.Join(dir, "traces")
	metricsPath := filepath.Join(dir, "metrics.json")
	cfg, err := loadConfig("", "clitest", 64, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, logPath, traceDir, 48, metricsPath); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "fdw_schedd_events_total") {
		t.Fatal("metrics snapshot missing schedd counters")
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(log), "Job terminated") {
		t.Fatal("user log has no termination events")
	}
	for _, f := range []string{"batch.csv", "jobs.csv"} {
		if _, err := os.Stat(filepath.Join(traceDir, f)); err != nil {
			t.Fatalf("missing trace %s: %v", f, err)
		}
	}
}

func TestRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "fdw.cfg")
	cfg := "name = from-file\nwaveforms = 64\nstations = 2\nseed = 4\n"
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := cli([]string{"-config", cfgPath, "-horizon", "48"}, io.Discard); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
}

// TestEmitUsesConfigFile: -emit writes the -config file's workflow,
// so the emitted fdw.cfg parses back to the same configuration.
func TestEmitUsesConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "run.cfg")
	if err := os.WriteFile(cfgPath, []byte("name = mine\nwaveforms = 64\nstations = 2\nseed = 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := loadConfig(cfgPath, "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out")
	if code := cli([]string{"-config", cfgPath, "-emit", out}, io.Discard); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	got, err := loadConfig(filepath.Join(out, "fdw.cfg"), "", 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("emitted config %+v, want the -config input %+v", got, want)
	}
}

// TestRejectsPositionalArgs: flag parsing stops at the first
// positional argument, so it would silently drop every flag after it;
// it is a usage error naming the argument instead.
func TestRejectsPositionalArgs(t *testing.T) {
	var stderr bytes.Buffer
	if code := cli([]string{"run.cfg", "-waveforms", "64"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"run.cfg"`) {
		t.Fatalf("usage error does not name the argument:\n%s", stderr.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "bad.cfg")
	if err := os.WriteFile(cfgPath, []byte("nonsense = here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cfgPath, filepath.Join(dir, "missing.cfg")} {
		if code := cli([]string{"-config", path}, io.Discard); code != 1 {
			t.Fatalf("-config %s: exit %d, want 1", path, code)
		}
	}
}

func TestRunRejectsImpossibleHorizon(t *testing.T) {
	cfg, err := loadConfig("", "h", 2000, 121, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg, "", "", 0.01, ""); err == nil {
		t.Fatal("a 36-second horizon should not finish 2000 waveforms")
	}
}
