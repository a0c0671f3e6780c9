// Command fqgen runs the FakeQuakes numeric kernels directly (no
// workflow, no pool): it generates one stochastic rupture scenario on
// the Chilean megathrust and synthesizes GNSS displacement waveforms,
// writing the Fig. 1-style products to disk — the rupture as a MudPy
// .rupt file, waveforms as .mseed, and a summary to stdout. With
// -recycle it keeps Phase A's two distance-matrix .npy files in a
// directory and reuses them on the next run, as FDW does.
//
// Usage:
//
//	fqgen -mw 8.4 -stations 8 -seed 7 -out products/ -recycle npy/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fdw"
	"fdw/internal/core/atomicfile"
	"fdw/internal/fakequakes"
	"fdw/internal/mseed"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs fqgen, returning the exit code: 1 on error, 2 on misuse,
// which includes a positional argument (flag parsing would stop there
// and drop what follows).
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fqgen", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		mw       = fs.Float64("mw", 8.1, "target moment magnitude (7.5–9.3)")
		stations = fs.Int("stations", 5, "number of GNSS stations (1–121)")
		seed     = fs.Uint64("seed", 1, "random seed")
		outDir   = fs.String("out", "", "directory for <rupture ID>.rupt and waveforms.mseed (optional)")
		recycle  = fs.String("recycle", "", "directory for Phase A's distance-matrix .npy files: loaded when they fit the geometry, else computed and written there (optional)")
	)
	fs.Parse(args) // exits 2 on a bad flag, 0 on -h
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fqgen: unexpected argument %q: fqgen takes flags only\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if err := run(stdout, *mw, *stations, *seed, *outDir, *recycle); err != nil {
		fmt.Fprintln(stderr, "fqgen:", err)
		return 1
	}
	return 0
}

func run(stdout io.Writer, mw float64, stations int, seed uint64, outDir, recycleDir string) error {
	sc, err := fdw.GenerateScenario(seed, mw, stations, recycleDir)
	if err != nil {
		return err
	}
	r := sc.Rupture
	fmt.Fprintf(stdout, "rupture %s: target Mw %.2f, realized Mw %.2f\n", r.ID, r.TargetMw, r.ActualMw)
	fmt.Fprintf(stdout, "  %d subfaults, max slip %.2f m, rupture duration %.0f s\n",
		len(r.Patch), r.MaxSlip(), r.Duration())
	if sc.Recycled {
		fmt.Fprintf(stdout, "  distance matrices recycled from %s\n", recycleDir)
	}
	for _, w := range sc.Waveforms {
		fmt.Fprintf(stdout, "  %-5s PGD %.3f m\n", w.Station, w.PGD())
	}
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	// The rupture in MudPy's .rupt layout: one row per subfault.
	rupt := r.ID + ".rupt"
	err = atomicfile.WriteFile(filepath.Join(outDir, rupt), func(w io.Writer) error {
		return fakequakes.WriteRupt(w, sc.Fault, r)
	})
	if err != nil {
		return err
	}

	// Waveforms: all stations, 3 components each, in the mseed codec.
	var records []mseed.Record
	for i := range sc.Waveforms {
		records = append(records, sc.Waveforms[i].ToRecords()...)
	}
	err = atomicfile.WriteFile(filepath.Join(outDir, "waveforms.mseed"), func(w io.Writer) error {
		return mseed.Write(w, records)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "products written to %s (%s, waveforms.mseed: %d records, %d bytes)\n",
		outDir, rupt, len(records), mseed.EncodedSize(records))
	return nil
}
