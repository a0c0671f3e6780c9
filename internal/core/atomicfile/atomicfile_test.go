package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readAll(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return string(b)
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestCommitReplacesDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := readAll(t, path); got != "old" {
		t.Fatalf("destination changed before Commit: %q", got)
	}
	if _, err := io.WriteString(f, "new"); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); got != "new" {
		t.Fatalf("after Commit got %q, want %q", got, "new")
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "out.txt" {
		t.Fatalf("temp residue left behind: %v", names)
	}
}

// TestAbortLeavesOldContent is the crash-equivalence property: a write
// that never reaches Commit (a kill, a failed encoder, an early return)
// must leave the previous complete file in place and no temp residue.
func TestAbortLeavesOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.npy")
	if err := os.WriteFile(path, []byte("valid-cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(f, "half-writt"); err != nil {
		t.Fatal(err)
	}
	f.Close() // abort
	if got := readAll(t, path); got != "valid-cache" {
		t.Fatalf("abort corrupted destination: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 || names[0] != "cache.npy" {
		t.Fatalf("temp residue left behind: %v", names)
	}
}

func TestCreateNewFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.csv")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n1,2\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, path); got != "a,b\n1,2\n" {
		t.Fatalf("got %q", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("committed file mode = %o, want 644", perm)
	}
}

// TestWriteFileErrorAborts: a failing write callback must not disturb
// an existing destination and must clean up its temp file.
func TestWriteFileErrorAborts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.txt")
	if err := os.WriteFile(path, []byte("complete report"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder exploded")
	err := WriteFile(path, func(w io.Writer) error {
		if _, werr := io.WriteString(w, "partial re"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's error", err)
	}
	if got := readAll(t, path); got != "complete report" {
		t.Fatalf("failed write disturbed destination: %q", got)
	}
	if names := listDir(t, dir); len(names) != 1 {
		t.Fatalf("temp residue left behind: %v", names)
	}
}

func TestDoubleFinalize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Close() // must be a no-op, not remove the committed file
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Close after Commit removed the destination: %v", err)
	}
	if err := f.Commit(); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second Commit = %v, want already-finalized error", err)
	}
	if _, err := f.Write([]byte("late")); err == nil {
		t.Fatal("Write after finalize succeeded")
	}
}

func TestNameReportsDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.json")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Name() != path {
		t.Fatalf("Name() = %q, want %q", f.Name(), path)
	}
}

// Name returns the destination path (not the temp path), so a File can
// stand in for an *os.File in log messages.
func (f *File) Name() string { return f.dest }
