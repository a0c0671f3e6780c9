package fakequakes

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"fdw/internal/core/atomicfile"
	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/npy"
)

// DistanceMatrices are the two recyclable ".npy" products Phase A
// depends on: inter-subfault distances (for the slip covariance) and
// subfault-to-station distances (for Green's functions / waveforms).
// Generating them is expensive (O(n²) geodesy over thousands of
// subfaults), which is why FDW recycles them across simulations: if no
// .npy files are provided, a single job creates them, and all parallel
// jobs then reuse the files.
type DistanceMatrices struct {
	// Subfault is NumSubfaults×NumSubfaults: 3-D center distances (km).
	Subfault *linalg.Matrix
	// Station is NumStations×NumSubfaults: epicentral distances (km).
	Station *linalg.Matrix
}

// ComputeDistanceMatrices builds both matrices from scratch. The O(n²)
// geodesy parallelizes across rows (disjoint writes per goroutine), the
// reason the single matrix job is worth a 4-core OSG slot.
func ComputeDistanceMatrices(f *geom.Fault, stations []geom.Station) *DistanceMatrices {
	n := f.NumSubfaults()
	sub := linalg.NewMatrix(n, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided rows balance the triangular workload.
			for i := w; i < n; i += workers {
				si := &f.Subfaults[i]
				row := sub.Row(i)
				for j := i + 1; j < n; j++ {
					row[j] = si.DistanceKm(&f.Subfaults[j])
				}
			}
		}(w)
	}
	wg.Wait()
	// Mirror the upper triangle in parallel: after the fill above every
	// source cell (i,j), i<j, is final, and partitioning by destination
	// row j gives each worker disjoint writes. This was the last O(n²)
	// serial stage of the matrix job.
	linalg.ParallelFor(n, 16, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			row := sub.Row(j)
			for i := 0; i < j; i++ {
				row[i] = sub.Data[i*n+j]
			}
		}
	})
	sta := linalg.NewMatrix(len(stations), n)
	linalg.ParallelFor(len(stations), 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			row := sta.Row(s)
			for j := 0; j < n; j++ {
				row[j] = geom.HaversineKm(stations[s].Pos, f.Subfaults[j].Center)
			}
		}
	})
	return &DistanceMatrices{Subfault: sub, Station: sta}
}

// Default file names used by FDW's matrix-recycling convention.
const (
	SubfaultNPY = "distances_subfault.npy"
	StationNPY  = "distances_station.npy"
)

// Save writes both matrices as .npy files into dir.
//
//lint:allow deadexport .npy distance-matrix writer; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func (d *DistanceMatrices) Save(dir string) error {
	if err := writeNPY(filepath.Join(dir, SubfaultNPY), d.Subfault); err != nil {
		return err
	}
	return writeNPY(filepath.Join(dir, StationNPY), d.Station)
}

// LoadDistanceMatrices reads both .npy files from dir. A missing file
// is reported with os.IsNotExist-compatible errors so callers can fall
// back to ComputeDistanceMatrices (the FDW recycling decision).
//
//lint:allow deadexport .npy distance-matrix reader; file format kept for the ROADMAP emit→parse item, which gives it a production caller
func LoadDistanceMatrices(dir string) (*DistanceMatrices, error) {
	sub, err := readNPY(filepath.Join(dir, SubfaultNPY))
	if err != nil {
		return nil, err
	}
	sta, err := readNPY(filepath.Join(dir, StationNPY))
	if err != nil {
		return nil, err
	}
	return &DistanceMatrices{Subfault: sub, Station: sta}, nil
}

// Validate checks the matrices are mutually consistent with a fault of
// n subfaults and m stations.
func (d *DistanceMatrices) Validate(nSubfaults, nStations int) error {
	if d.Subfault == nil || d.Station == nil {
		return fmt.Errorf("fakequakes: nil distance matrices")
	}
	if d.Subfault.Rows != nSubfaults || d.Subfault.Cols != nSubfaults {
		return fmt.Errorf("fakequakes: subfault matrix is %dx%d, want %dx%d",
			d.Subfault.Rows, d.Subfault.Cols, nSubfaults, nSubfaults)
	}
	if d.Station.Rows != nStations || d.Station.Cols != nSubfaults {
		return fmt.Errorf("fakequakes: station matrix is %dx%d, want %dx%d",
			d.Station.Rows, d.Station.Cols, nStations, nSubfaults)
	}
	return nil
}

// writeNPY replaces path atomically (temp + fsync + rename): the
// recyclable .npy caches are read by later warm runs, so a crash
// mid-write must leave either the previous complete file or nothing —
// a truncated cache would poison every run that trusts it.
func writeNPY(path string, m *linalg.Matrix) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return npy.Write(w, m)
	})
}

func readNPY(path string) (*linalg.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := npy.Read(f)
	if err != nil {
		return nil, fmt.Errorf("fakequakes: reading %s: %w", path, err)
	}
	return m, nil
}
