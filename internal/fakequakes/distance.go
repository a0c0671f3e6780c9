package fakequakes

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"fdw/internal/core/atomicfile"
	"fdw/internal/geom"
	"fdw/internal/linalg"
	"fdw/internal/npy"
	"fdw/internal/par"
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
// geodesy parallelizes across rows (disjoint writes per worker), the
// reason the single matrix job is worth a 4-core OSG slot.
func ComputeDistanceMatrices(f *geom.Fault, stations []geom.Station) *DistanceMatrices {
	n := f.NumSubfaults()
	sub := linalg.NewMatrix(n, n)
	// One row per index: the rows shorten down the triangle, and the
	// shared counter hands the next row to whichever worker is free.
	par.Each(0, n, func() func(int) error {
		return func(i int) error {
			si := &f.Subfaults[i]
			row := sub.Row(i)
			for j := i + 1; j < n; j++ {
				row[j] = si.DistanceKm(&f.Subfaults[j])
			}
			return nil
		}
	})
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

// RecycleDistanceMatrices is FDW's matrix-recycling decision: a hit
// loads both files from dir when they parse, fit f and stations and
// hold only finite, non-negative distances. A miss, never an error,
// computes the pair and writes it back; only a failed write is an
// error. dir serves one fault and station list; "" writes nothing.
func RecycleDistanceMatrices(dir string, f *geom.Fault, stations []geom.Station) (*DistanceMatrices, bool, error) {
	if dir == "" {
		return ComputeDistanceMatrices(f, stations), false, nil
	}
	if d, err := loadDistanceMatrices(dir); err == nil && d.Validate(f.NumSubfaults(), len(stations)) == nil {
		return d, true, nil
	}
	d := ComputeDistanceMatrices(f, stations)
	if err := d.save(dir); err != nil {
		return nil, false, fmt.Errorf("fakequakes: recycling distance matrices: %w", err)
	}
	return d, false, nil
}

// save writes both matrices as .npy files into dir, creating it.
func (d *DistanceMatrices) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeNPY(filepath.Join(dir, SubfaultNPY), d.Subfault); err != nil {
		return err
	}
	return writeNPY(filepath.Join(dir, StationNPY), d.Station)
}

// loadDistanceMatrices reads both .npy files from dir.
func loadDistanceMatrices(dir string) (*DistanceMatrices, error) {
	sub, err := readDistances(filepath.Join(dir, SubfaultNPY))
	if err != nil {
		return nil, err
	}
	sta, err := readDistances(filepath.Join(dir, StationNPY))
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

// writeNPY replaces path atomically (temp + fsync + rename): a crash
// leaves the previous complete file or none, never a truncated one.
func writeNPY(path string, m *linalg.Matrix) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return npy.Write(w, m)
	})
}

// readDistances reads the matrix at path and rejects any entry that
// is not a finite, non-negative distance.
func readDistances(path string) (*linalg.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := npy.Read(f)
	if err != nil {
		return nil, fmt.Errorf("fakequakes: reading %s: %w", path, err)
	}
	for _, v := range m.Data {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("fakequakes: %s holds distance %v", path, v)
		}
	}
	return m, nil
}
