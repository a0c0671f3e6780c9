package sched

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"path/filepath"
	"strconv"

	"fdw/internal/expt"
	"fdw/internal/faults"
)

// The scheduler A/B matrix: every standard worker-fault plan crossed
// with the three lease-recovery policies, each run through the full
// scheduler over one campaign and checked byte-for-byte against the
// unsharded reference — the same improve-or-tie methodology the
// recovery matrix (DESIGN.md §11) established, applied to the fleet
// layer.

// Policy is one arm of the A/B matrix.
type Policy struct {
	Name         string
	Steal, Hedge bool
}

// MatrixPolicies are the compared arms, print order.
func MatrixPolicies() []Policy {
	return []Policy{
		{Name: "no-steal"},
		{Name: "steal", Steal: true},
		{Name: "steal+hedge", Steal: true, Hedge: true},
	}
}

// MatrixRow is one (plan, policy) cell of the scheduler A/B matrix.
type MatrixRow struct {
	Plan      string
	Policy    string
	Workers   int
	MakespanH float64
	Stats     Stats
	// Identical records whether the run's merged report and CSVs
	// equal the unsharded reference — the headline guarantee; any
	// false here is a scheduler bug.
	Identical bool
}

// Matrix runs campaign under every standard worker plan × policy with
// the given fleet size, writing worker bundles under subdirectories of
// dir and the comparison table to opt.Out. Cell results are memoized
// across the whole matrix (each unique cell simulates once); the
// scheduler runs themselves are full-fidelity.
func Matrix(opt expt.Options, campaign string, workers int, dir string) ([]MatrixRow, error) {
	h, err := expt.OpenCampaign(campaign, opt)
	if err != nil {
		return nil, err
	}
	src := Memoize(h)

	// render finalizes a record set through the shared path into its
	// report followed by every CSV the campaign declares.
	render := func(records map[string]expt.CellRecord) ([]byte, error) {
		var b bytes.Buffer
		res, err := h.Finalize(&b, records)
		if err != nil {
			return nil, err
		}
		for _, c := range res.CSVs {
			fmt.Fprintf(&b, "== %s\n", c.Name)
			if err := c.Write(&b); err != nil {
				return nil, err
			}
		}
		return b.Bytes(), nil
	}

	// Unsharded reference bytes, via the same finalize path.
	ref := map[string]expt.CellRecord{}
	for _, id := range src.CellIDs() {
		rec, err := src.RunCell(id)
		if err != nil {
			return nil, err
		}
		ref[id] = rec
	}
	want, err := render(ref)
	if err != nil {
		return nil, err
	}

	var rows []MatrixRow
	for _, plan := range faults.StandardWorkerPlans() {
		for _, pol := range MatrixPolicies() {
			cfg := Config{
				Workers: workers,
				Steal:   pol.Steal,
				Hedge:   pol.Hedge,
				Plan:    plan,
				Dir:     filepath.Join(dir, plan.Name+"-"+pol.Name),
				Obs:     opt.Obs,
			}
			res, err := Run(src, cfg)
			if err != nil {
				return nil, fmt.Errorf("sched: matrix plan %q policy %q: %w", plan.Name, pol.Name, err)
			}
			got, err := render(res.Records)
			if err != nil {
				return nil, fmt.Errorf("sched: matrix plan %q policy %q: %w", plan.Name, pol.Name, err)
			}
			rows = append(rows, MatrixRow{
				Plan:      plan.Name,
				Policy:    pol.Name,
				Workers:   workers,
				MakespanH: float64(res.Makespan) / 3600,
				Stats:     res.Stats,
				Identical: bytes.Equal(want, got),
			})
		}
	}
	printMatrix(opt, campaign, workers, rows)
	return rows, nil
}

func printMatrix(opt expt.Options, campaign string, workers int, rows []MatrixRow) {
	w := opt.Out
	if w == nil {
		return
	}
	fmt.Fprintf(w, "Scheduler A/B matrix — campaign %s, %d workers, %d plans × %d policies\n",
		campaign, workers, len(faults.StandardWorkerPlans()), len(MatrixPolicies()))
	fmt.Fprintf(w, "%-16s %-12s %10s | %6s %6s %7s %6s %6s | %4s %5s %6s | %s\n",
		"plan", "policy", "makespan h", "grant", "expire", "requeue", "steal", "hedge", "dup", "crash", "restrt", "identical")
	for _, r := range rows {
		ident := "yes"
		if !r.Identical {
			ident = "NO"
		}
		fmt.Fprintf(w, "%-16s %-12s %10.2f | %6d %6d %7d %6d %6d | %4d %5d %6d | %s\n",
			r.Plan, r.Policy, r.MakespanH,
			r.Stats.LeasesGranted, r.Stats.LeasesExpired, r.Stats.CellsRequeued,
			r.Stats.CellsStolen, r.Stats.CellsHedged,
			r.Stats.Duplicates, r.Stats.WorkerCrashes, r.Stats.WorkerRestarts, ident)
	}
}

// WriteMatrixCSV renders matrix rows as CSV.
func WriteMatrixCSV(w io.Writer, rows []MatrixRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"plan", "policy", "workers", "makespan_h",
		"leases_granted", "leases_renewed", "leases_expired",
		"cells_requeued", "cells_stolen", "cells_hedged",
		"duplicate_completions", "late_acks", "recovered_completions",
		"checkpoints", "torn_checkpoints",
		"worker_crashes", "worker_restarts", "missed_heartbeats",
		"identical",
	}); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Plan, r.Policy, strconv.Itoa(r.Workers),
			strconv.FormatFloat(r.MakespanH, 'f', 4, 64),
			u(r.Stats.LeasesGranted), u(r.Stats.LeasesRenewed), u(r.Stats.LeasesExpired),
			u(r.Stats.CellsRequeued), u(r.Stats.CellsStolen), u(r.Stats.CellsHedged),
			u(r.Stats.Duplicates), u(r.Stats.AcksLate), u(r.Stats.Recovered),
			u(r.Stats.Checkpoints), u(r.Stats.CheckpointsTorn),
			u(r.Stats.WorkerCrashes), u(r.Stats.WorkerRestarts), u(r.Stats.HeartbeatsMissed),
			strconv.FormatBool(r.Identical),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
