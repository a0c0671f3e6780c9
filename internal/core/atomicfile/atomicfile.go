// Package atomicfile is the one way FDW writes durable artifacts:
// manifest bundles, .npy matrix caches, figure CSVs, metrics dumps,
// DAG/submit files, the vdcd catalog. Every write goes to a temp file
// in the destination directory, is fsynced, and is renamed over the
// destination only on Commit — so a crash or kill at any instant
// leaves either the previous complete file or the new complete file,
// never a truncated one. Rescue-DAG resume and warm-cache reuse
// (DESIGN.md §13) depend on exactly this property: a partial
// artifact that parses as valid data would silently poison later
// runs, and one that does not parse would abort them.
//
// The `atomicwrite` analyzer (internal/lint, DESIGN.md §9) enforces
// that non-test code creates output files only through this package:
// direct os.Create / os.WriteFile / os.CreateTemp calls elsewhere are
// diagnostics.
//
// Idiomatic streaming use:
//
//	f, err := atomicfile.Create(path)
//	if err != nil { ... }
//	defer f.Close() // no-op after Commit; aborts (removes temp) otherwise
//	... write to f ...
//	return f.Commit()
//
// One-shot use:
//
//	err := atomicfile.WriteFile(path, func(w io.Writer) error {
//		return enc.Encode(w, v)
//	})
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is a pending atomic replacement of a destination path. It
// implements io.Writer; the bytes land in a same-directory temp file
// until Commit renames it into place. Exactly one of Commit or Close
// finalizes a File; Close after Commit is a no-op, so `defer f.Close()`
// immediately after Create is always correct.
type File struct {
	dest string
	tmp  *os.File
	done bool
}

// Create begins an atomic write of path. The temp file is created in
// path's directory (renames are only atomic within a filesystem) with
// mode 0o644, matching what os.Create-written artifacts had.
func Create(path string) (*File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close() //lint:allow errdrop abort path: the chmod error is what gets reported
		os.Remove(tmp.Name())
		return nil, err
	}
	return &File{dest: path, tmp: tmp}, nil
}

// Write appends to the pending temp file.
func (f *File) Write(p []byte) (int, error) {
	if f.done {
		return 0, fmt.Errorf("atomicfile: write to finalized %s", f.dest)
	}
	return f.tmp.Write(p)
}

// Commit fsyncs the temp file, closes it, and renames it over the
// destination. On any error the temp file is removed and the
// destination is left exactly as it was.
func (f *File) Commit() error {
	if f.done {
		return fmt.Errorf("atomicfile: %s already committed or aborted", f.dest)
	}
	f.done = true
	name := f.tmp.Name()
	// Sync before rename: a rename can survive a crash that the data
	// did not, which is precisely the corrupt-cache scenario this
	// package exists to rule out.
	if err := f.tmp.Sync(); err != nil {
		f.tmp.Close() //lint:allow errdrop abort path: the sync error is what gets reported
		os.Remove(name)
		return err
	}
	if err := f.tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if TestHookBeforeRename != nil {
		if err := TestHookBeforeRename(f.dest); err != nil {
			// The torn-checkpoint kill point: the temp file is
			// deliberately left behind, exactly as a crash between write
			// and rename would — the destination still holds its previous
			// complete bytes and recovery must never trust the orphan.
			return err
		}
	}
	if err := os.Rename(name, f.dest); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// TestHookBeforeRename, when non-nil, runs after the temp file is
// synced and closed but before the rename that publishes it. A non-nil
// error aborts the commit with the temp file left in place, simulating
// a kill in the narrow window between durable write and publication (a
// torn checkpoint). Torn-checkpoint hardening tests set it; production
// code never does.
var TestHookBeforeRename func(dest string) error

// Close aborts the write unless Commit already ran: the temp file is
// closed and removed, and the destination is untouched. It returns
// nothing because aborting is best-effort by design — the error being
// unwound past the deferred Close is the one worth reporting.
func (f *File) Close() {
	if f.done {
		return
	}
	f.done = true
	f.tmp.Close() //lint:allow errdrop abort path: destination is untouched either way
	os.Remove(f.tmp.Name())
}

// WriteFile atomically replaces path with whatever write produces:
// the callback's output is staged in a temp file and renamed into
// place only if the callback and the sync both succeed.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Commit()
}
