// Package wtrace defines the two .csv trace files the paper's VDC
// bursting simulator takes as input: the submission/execution/
// termination times of an actual DAGMan batch, and the same information
// for the individual jobs within it. Traces are produced by FDW runs on
// the simulated OSPool and consumed by internal/burst.
package wtrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"fdw/internal/htcondor"
)

// JobClass mirrors the two job kinds whose simulated VDC completion
// times the paper fixes (rupture 287 s, waveform 144 s); GF/matrix jobs
// are never bursted.
type JobClass string

// Job classes appearing in traces.
const (
	ClassRupture  JobClass = "rupture"
	ClassWaveform JobClass = "waveform"
	ClassGF       JobClass = "gf"
	ClassMatrix   JobClass = "matrix"
)

// JobRecord is one job's trace row. Times are seconds on the batch's
// clock; Start/End are negative for jobs that never started/finished.
type JobRecord struct {
	ID     string
	Class  JobClass
	Submit float64
	Start  float64
	End    float64
}

// Started reports whether the job began executing.
func (j JobRecord) Started() bool { return j.Start >= 0 }

// Finished reports whether the job terminated.
func (j JobRecord) Finished() bool { return j.End >= 0 }

// BatchRecord is the DAGMan batch trace row.
type BatchRecord struct {
	Name   string
	Submit float64 // first submission
	Start  float64 // first execution
	End    float64 // last termination
}

// Validate checks that the times are finite and ordered.
func (b BatchRecord) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("wtrace: empty batch name")
	}
	for _, v := range [...]float64{b.Submit, b.Start, b.End} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("wtrace: batch time %v is not finite: submit %v start %v end %v",
				v, b.Submit, b.Start, b.End)
		}
	}
	if b.End < b.Start || b.Start < b.Submit {
		return fmt.Errorf("wtrace: batch times out of order: submit %v start %v end %v",
			b.Submit, b.Start, b.End)
	}
	return nil
}

// classify maps an FDW executable name to a job class.
func classify(executable string) JobClass {
	switch {
	case strings.Contains(executable, "phase_A"):
		return ClassRupture
	case strings.Contains(executable, "phase_C"):
		return ClassWaveform
	case strings.Contains(executable, "phase_B"):
		return ClassGF
	default:
		return ClassMatrix
	}
}

// FromSchedd extracts a batch + jobs trace from a completed FDW run's
// schedd state.
func FromSchedd(name string, s *htcondor.Schedd) (BatchRecord, []JobRecord, error) {
	all := s.AllJobs()
	if len(all) == 0 {
		return BatchRecord{}, nil, fmt.Errorf("wtrace: schedd has no jobs")
	}
	batch := BatchRecord{Name: name, Submit: -1, Start: -1}
	jobs := make([]JobRecord, 0, len(all))
	for _, j := range all {
		rec := JobRecord{
			ID:     j.ID(),
			Class:  classify(j.Executable),
			Submit: float64(j.SubmitTime),
			Start:  -1,
			End:    -1,
		}
		if j.Status == htcondor.Running || j.Status == htcondor.Completed {
			rec.Start = float64(j.StartTime)
		}
		if j.Status == htcondor.Completed || j.Status == htcondor.Removed {
			rec.End = float64(j.EndTime)
		}
		jobs = append(jobs, rec)
		if batch.Submit < 0 || rec.Submit < batch.Submit {
			batch.Submit = rec.Submit
		}
		if rec.Started() && (batch.Start < 0 || rec.Start < batch.Start) {
			batch.Start = rec.Start
		}
		if rec.End > batch.End {
			batch.End = rec.End
		}
	}
	if batch.Start < 0 {
		batch.Start = batch.Submit
	}
	return batch, jobs, batch.Validate()
}

// WriteBatchCSV writes the single-row batch trace.
func WriteBatchCSV(w io.Writer, b BatchRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"batch", "submit", "start", "end"}); err != nil {
		return err
	}
	if err := cw.Write([]string{b.Name, ftoa(b.Submit), ftoa(b.Start), ftoa(b.End)}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadBatchCSV reads a batch trace written by WriteBatchCSV.
func ReadBatchCSV(r io.Reader) (BatchRecord, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return BatchRecord{}, fmt.Errorf("wtrace: batch CSV: %w", err)
	}
	if len(rows) != 2 || len(rows[1]) != 4 {
		return BatchRecord{}, fmt.Errorf("wtrace: batch CSV must be header plus one row")
	}
	b := BatchRecord{Name: rows[1][0]}
	if b.Submit, err = atof(rows[1][1]); err != nil {
		return b, fmt.Errorf("wtrace: batch CSV submit: %v", err)
	}
	if b.Start, err = atof(rows[1][2]); err != nil {
		return b, fmt.Errorf("wtrace: batch CSV start: %v", err)
	}
	if b.End, err = atof(rows[1][3]); err != nil {
		return b, fmt.Errorf("wtrace: batch CSV end: %v", err)
	}
	return b, b.Validate()
}

// WriteJobsCSV writes per-job trace rows.
func WriteJobsCSV(w io.Writer, jobs []JobRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "class", "submit", "start", "end"}); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := cw.Write([]string{j.ID, string(j.Class), ftoa(j.Submit), ftoa(j.Start), ftoa(j.End)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadJobsCSV reads rows written by WriteJobsCSV.
func ReadJobsCSV(r io.Reader) ([]JobRecord, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("wtrace: jobs CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("wtrace: empty jobs CSV")
	}
	jobs := make([]JobRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 5 {
			return nil, fmt.Errorf("wtrace: jobs CSV row %d has %d columns, want 5", i+2, len(row))
		}
		j := JobRecord{ID: row[0], Class: JobClass(row[1])}
		switch j.Class {
		case ClassRupture, ClassWaveform, ClassGF, ClassMatrix:
		default:
			return nil, fmt.Errorf("wtrace: jobs CSV row %d: unknown class %q", i+2, row[1])
		}
		if j.Submit, err = atof(row[2]); err != nil {
			return nil, fmt.Errorf("wtrace: jobs CSV row %d: %v", i+2, err)
		}
		if j.Start, err = atof(row[3]); err != nil {
			return nil, fmt.Errorf("wtrace: jobs CSV row %d: %v", i+2, err)
		}
		if j.End, err = atof(row[4]); err != nil {
			return nil, fmt.Errorf("wtrace: jobs CSV row %d: %v", i+2, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// atof parses a trace time; NaN and ±Inf are rejected, since no
// ordering check can hold on them.
func atof(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("non-finite number %q", s)
	}
	return f, nil
}
