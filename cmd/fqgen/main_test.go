package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdw/internal/fakequakes"
)

func TestFqgenWritesProducts(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, 8.1, 2, 5, dir, ""); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run000001.rupt", "waveforms.mseed"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
}

func TestFqgenNoOutputDir(t *testing.T) {
	if err := run(io.Discard, 8.0, 1, 1, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestFqgenRejectsBadMagnitude(t *testing.T) {
	if err := run(io.Discard, 5.0, 2, 1, "", ""); err == nil {
		t.Fatal("Mw 5 accepted")
	}
}

// TestFqgenRecyclesDistanceMatrices runs -recycle cold then warm in
// one directory: the cold run writes both .npy files, the warm run
// reports a hit, leaves the files as they were, and writes the same
// products as a run without -recycle.
func TestFqgenRecyclesDistanceMatrices(t *testing.T) {
	npyDir := filepath.Join(t.TempDir(), "npy")
	plain, cold, warm := t.TempDir(), t.TempDir(), t.TempDir()
	if err := run(io.Discard, 8.1, 2, 5, plain, ""); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, 8.1, 2, 5, cold, npyDir); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "recycled") {
		t.Fatalf("cold run reported a hit:\n%s", out.String())
	}
	files := []string{fakequakes.SubfaultNPY, fakequakes.StationNPY}
	before := make([]os.FileInfo, len(files))
	for i, f := range files {
		st, err := os.Stat(filepath.Join(npyDir, f))
		if err != nil {
			t.Fatalf("cold run left no %s: %v", f, err)
		}
		before[i] = st
	}
	out.Reset()
	if err := run(&out, 8.1, 2, 5, warm, npyDir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "distance matrices recycled from") {
		t.Fatalf("warm run did not report a hit:\n%s", out.String())
	}
	for i, f := range files {
		st, err := os.Stat(filepath.Join(npyDir, f))
		if err != nil || !os.SameFile(before[i], st) {
			t.Fatalf("warm run rewrote %s (err %v)", f, err)
		}
	}
	for _, f := range []string{"run000001.rupt", "waveforms.mseed"} {
		want, err := os.ReadFile(filepath.Join(plain, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range []string{cold, warm} {
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs with -recycle", f)
			}
		}
	}
}

// TestFqgenRejectsPositionalArgs: flag parsing stops at the first
// positional argument, so "fqgen 8.4 -stations 3" would silently drop
// both; it is a usage error naming the argument instead.
func TestFqgenRejectsPositionalArgs(t *testing.T) {
	var stderr bytes.Buffer
	if code := cli([]string{"8.4", "-stations", "3"}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"8.4"`) {
		t.Fatalf("usage error does not name the argument:\n%s", stderr.String())
	}
}
