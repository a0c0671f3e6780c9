package htcondor_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdw/internal/core"
	"fdw/internal/htcondor"
)

// FuzzParseSubmit holds the submit-file boundary to four properties:
// ParseSubmit never panics; its errors name the parser; an accepted
// file round-trips Write → ParseSubmit → Write byte-identically; and
// Materialize on it either errors or returns QueueN jobs. The corpus
// starts from the package's submit samples and the four phase files
// core.WriteArtifacts emits.
func FuzzParseSubmit(f *testing.F) {
	for _, s := range htcondor.SubmitSamples() {
		f.Add([]byte(s))
	}
	dir := f.TempDir()
	if err := core.WriteArtifacts(core.DefaultConfig(), dir); err != nil {
		f.Fatal(err)
	}
	subs, err := filepath.Glob(filepath.Join(dir, "*.sub"))
	if err != nil || len(subs) != 4 {
		f.Fatalf("WriteArtifacts emitted %d submit files (%v), want 4", len(subs), err)
	}
	for _, path := range subs {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sf, err := htcondor.ParseSubmit(bytes.NewReader(src))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "htcondor:") {
				t.Fatalf("error %q does not start with htcondor:", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := sf.Write(&first); err != nil {
			t.Fatal(err)
		}
		again, err := htcondor.ParseSubmit(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written file does not parse: %v\n%q", err, first.Bytes())
		}
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the file:\n%q\n%q", first.Bytes(), second.Bytes())
		}
		jobs, err := sf.Materialize(1, "u")
		if err == nil && len(jobs) != sf.QueueN {
			t.Fatalf("Materialize returned %d jobs, want %d", len(jobs), sf.QueueN)
		}
	})
}
