package fakequakes

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"fdw/internal/linalg"
)

// requireSameMatrices fails unless got holds want's shapes and bits.
func requireSameMatrices(t *testing.T, name string, got, want *DistanceMatrices) {
	t.Helper()
	for _, p := range [][2]*linalg.Matrix{{got.Subfault, want.Subfault}, {got.Station, want.Station}} {
		g, w := p[0], p[1]
		if g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: %dx%d matrix, want %dx%d", name, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: entry %d is %v, want %v", name, i, g.Data[i], w.Data[i])
			}
		}
	}
}

// statPair returns the file info of both recycled files in dir.
func statPair(t *testing.T, dir string) [2]os.FileInfo {
	t.Helper()
	var st [2]os.FileInfo
	for i, f := range []string{SubfaultNPY, StationNPY} {
		info, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		st[i] = info
	}
	return st
}

// TestRecycleDistanceMatricesColdThenWarm: the first call computes and
// writes both files (creating the directory), the second loads them
// without rewriting either, and both return a fresh computation's
// exact bits. The empty directory computes and reports no hit.
func TestRecycleDistanceMatricesColdThenWarm(t *testing.T) {
	f, stations, fresh := smallSetup(t, 3)
	dir := filepath.Join(t.TempDir(), "npy")
	cold, hit, err := RecycleDistanceMatrices(dir, f, stations)
	if err != nil || hit {
		t.Fatalf("cold: hit=%v err=%v, want a miss", hit, err)
	}
	requireSameMatrices(t, "cold", cold, fresh)
	before := statPair(t, dir)
	warm, hit, err := RecycleDistanceMatrices(dir, f, stations)
	if err != nil || !hit {
		t.Fatalf("warm: hit=%v err=%v, want a hit", hit, err)
	}
	requireSameMatrices(t, "warm", warm, fresh)
	after := statPair(t, dir)
	for i := range before {
		if !os.SameFile(before[i], after[i]) {
			t.Fatalf("warm hit rewrote %s", before[i].Name())
		}
	}
	none, hit, err := RecycleDistanceMatrices("", f, stations)
	if err != nil || hit {
		t.Fatalf(`dir "": hit=%v err=%v`, hit, err)
	}
	requireSameMatrices(t, `dir ""`, none, fresh)
}

// TestRecycleDistanceMatricesMissRecomputes: every unusable pair is a
// miss, never an error: the call returns a fresh computation's bits,
// rewrites both files with them, and the next call hits.
func TestRecycleDistanceMatricesMissRecomputes(t *testing.T) {
	f, stations, fresh := smallSetup(t, 5)
	poison := func(file string, m *linalg.Matrix, v float64) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			bad := linalg.NewMatrix(m.Rows, m.Cols)
			copy(bad.Data, m.Data)
			bad.Data[len(bad.Data)/2] = v
			if err := writeNPY(filepath.Join(dir, file), bad); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(file string) func(*testing.T, string) {
		return func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, file)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name  string
		spoil func(*testing.T, string)
	}{
		{"subfault file missing", remove(SubfaultNPY)},
		{"station file missing", remove(StationNPY)},
		{"written for 3 stations, read for 5", func(t *testing.T, dir string) {
			if err := ComputeDistanceMatrices(f, stations[:3]).save(dir); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated station file", func(t *testing.T, dir string) {
			path := filepath.Join(dir, StationNPY)
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"NaN station distance", poison(StationNPY, fresh.Station, math.NaN())},
		{"+Inf subfault distance", poison(SubfaultNPY, fresh.Subfault, math.Inf(1))},
		{"-Inf station distance", poison(StationNPY, fresh.Station, math.Inf(-1))},
		{"negative subfault distance", poison(SubfaultNPY, fresh.Subfault, -1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := fresh.save(dir); err != nil {
				t.Fatal(err)
			}
			tc.spoil(t, dir)
			got, hit, err := RecycleDistanceMatrices(dir, f, stations)
			if err != nil || hit {
				t.Fatalf("hit=%v err=%v, want a miss", hit, err)
			}
			requireSameMatrices(t, "recomputed", got, fresh)
			onDisk, err := loadDistanceMatrices(dir)
			if err != nil {
				t.Fatalf("miss did not rewrite the pair: %v", err)
			}
			requireSameMatrices(t, "rewritten", onDisk, fresh)
			if _, hit, err := RecycleDistanceMatrices(dir, f, stations); err != nil || !hit {
				t.Fatalf("after the rewrite: hit=%v err=%v, want a hit", hit, err)
			}
		})
	}
}

// TestRecycleDistanceMatricesWriteFailure: a miss whose pair cannot be
// written back is an error, since every later run would miss too.
func TestRecycleDistanceMatricesWriteFailure(t *testing.T) {
	f, stations, _ := smallSetup(t, 2)
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecycleDistanceMatrices(notDir, f, stations); err == nil {
		t.Fatal("recycling into a regular file succeeded")
	}
}
