package expt

import (
	"errors"
	"fmt"
	"sync"

	"fdw/internal/par"
)

// The distributed campaign runner: fdwexp -shard i/N partitions any
// registered campaign's cells across N independent invocations by a stable hash
// of cell identity, each shard checkpointing a CampaignManifest after
// every completed cell; fdwexp -merge stitches the manifests back into
// the byte-identical unsharded report. The cell list, the shard
// assignment, and the checkpoint todo order are all derived from
// identity strings, never from worker count or map order, so the
// partition is reproducible on any machine.

// ErrIncomplete marks a shard run that stopped before finishing every
// owned cell (the -cells budget); the manifest on disk is valid and a
// -resume run will pick up the remaining cells. fdwexp exits 3 on it.
var ErrIncomplete = errors.New("expt: shard incomplete (resume to finish)")

// ShardRun configures one RunShard invocation.
type ShardRun struct {
	// Campaign is the campaign name (see Campaigns).
	Campaign string
	// Index/Total place this run in the partition (1-based).
	Index, Total int
	// Path is the manifest file this run checkpoints to.
	Path string
	// MaxCells, when positive, stops the run after that many cells —
	// the deterministic model of a mid-campaign kill (the todo list is
	// truncated in canonical order before any cell runs).
	MaxCells int
	// Resume loads Path (a missing file is an empty bundle) and
	// re-executes only owned cells it does not store. Without Resume
	// an existing manifest is overwritten.
	Resume bool
}

// RunShard executes the cells of opt's campaign owned by shard
// Index/Total, checkpointing the manifest to Path after every
// completed cell (atomic rewrite, so a kill leaves the last good
// checkpoint). It returns the final manifest; the error is
// ErrIncomplete when a MaxCells budget stopped the run early.
func RunShard(opt Options, run ShardRun) (*CampaignManifest, error) {
	if run.MaxCells < 0 {
		return nil, fmt.Errorf("expt: negative cell budget %d", run.MaxCells)
	}
	h, err := OpenCampaign(run.Campaign, opt)
	if err != nil {
		return nil, err
	}
	spec := ShardSpec{Index: run.Index, Total: run.Total}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	owned := ShardCells(h.c.name, h.ids, run.Index, run.Total)

	// The done-set is the stored records: resume reruns every owned
	// cell the loaded bundle does not hold.
	stored := map[string]CellRecord{}
	if run.Resume {
		old, err := LoadBundle(run.Path, h.c.name, h.fp, spec, false, h.pos)
		if err != nil {
			return nil, fmt.Errorf("expt: resume: %w", err)
		}
		for _, rec := range old.Cells {
			stored[rec.ID] = rec
		}
	}

	var todo []string
	for _, id := range owned {
		if _, done := stored[id]; !done {
			todo = append(todo, id)
		}
	}
	incomplete := false
	if run.MaxCells > 0 && len(todo) > run.MaxCells {
		todo = todo[:run.MaxCells]
		incomplete = true
	}

	// The handle's campaign ctx is shared by the shard's workers, so
	// fig5/fig6 traces build once per process. Each completion is
	// checkpointed under mu by atomically rewriting Path; cells (and
	// their metrics) appear in canonical owned order regardless of
	// completion order.
	var mu sync.Mutex
	err = par.Each(opt.Workers, len(todo), func() func(int) error {
		return func(i int) error {
			rec, err := h.RunCell(todo[i])
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			stored[rec.ID] = rec
			return NewBundle(h.c.name, h.fp, spec, false, owned, stored).WriteFile(run.Path)
		}
	})
	if err != nil {
		return nil, err
	}

	// A shard with nothing left to run (all resumed, or owning zero
	// cells) still writes its manifest so merge has a complete bundle.
	final := NewBundle(h.c.name, h.fp, spec, false, owned, stored)
	if err := final.WriteFile(run.Path); err != nil {
		return nil, err
	}
	if incomplete {
		return final, fmt.Errorf("%w: %d of %d cells done (shard %s of %s)",
			ErrIncomplete, final.Ledger.DoneCount(), len(owned), spec, h.c.name)
	}
	return final, nil
}

// MergeManifests verifies a set of shard or worker bundles covers
// opt's campaign exactly — same campaign, bundle kind, fingerprint and
// partition width, no cell outside the campaign, no digest conflict,
// every cell stored — then finalizes the union, printing the report to
// opt.Out. Finalize is the same code the unsharded run uses on
// in-memory results, and Go's JSON float round-trip is exact, so the
// printed report and CSV are byte-identical to an unsharded run.
func MergeManifests(opt Options, manifests []*CampaignManifest) (*Result, error) {
	if len(manifests) == 0 {
		return nil, fmt.Errorf("expt: merge: no manifests")
	}
	first := manifests[0]
	h, err := OpenCampaign(first.Campaign, opt)
	if err != nil {
		return nil, err
	}
	slots := map[int]bool{}
	for _, m := range manifests {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		if m.Campaign != first.Campaign {
			return nil, fmt.Errorf("expt: merge: mixed campaigns %s and %s", first.Campaign, m.Campaign)
		}
		if m.Leased != first.Leased {
			return nil, fmt.Errorf("expt: merge: cannot mix leased worker bundles and hash-partitioned shard bundles")
		}
		if m.Shard.Total != first.Shard.Total {
			return nil, fmt.Errorf("expt: merge: mixed partitions /%d and /%d", first.Shard.Total, m.Shard.Total)
		}
		if m.Fingerprint != h.fp {
			return nil, fmt.Errorf("expt: merge: %s fingerprint %s does not match options fingerprint %s",
				slotName(m.Leased, m.Shard), m.Fingerprint, h.fp)
		}
		slots[m.Shard.Index] = true
	}
	// A slot supplied twice, or a cell checkpointed by several workers
	// (steal races, hedged stragglers, late acks), is benign only when
	// every copy agrees by digest.
	merged, conflicts := unionCells(manifests)
	if len(conflicts) > 0 {
		return nil, fmt.Errorf("expt: merge: %w", conflicts[0])
	}
	for _, m := range manifests {
		if err := unknownCell(m, h.pos); err != nil {
			return nil, fmt.Errorf("expt: merge: %w", err)
		}
	}
	for _, id := range h.ids {
		if _, ok := merged[id]; ok {
			continue
		}
		if owner := shardOf(h.c.name, id, first.Shard.Total); !first.Leased && !slots[owner] {
			return nil, fmt.Errorf("expt: merge: cell %q belongs to shard %d/%d, which was not supplied", id, owner, first.Shard.Total)
		}
		return nil, fmt.Errorf("%w: cell %q not completed by any bundle (%d of %d cells done; resume before merging)",
			ErrIncomplete, id, len(merged), len(h.ids))
	}

	// A cell several workers completed counts once.
	records := make([]CellRecord, len(h.ids))
	for i, id := range h.ids {
		records[i] = merged[id]
	}
	metrics, err := RollupMetrics(records)
	if err != nil {
		return nil, fmt.Errorf("expt: merge: %w", err)
	}
	res, err := h.Finalize(nil, merged)
	if res != nil {
		res.Metrics = metrics
	}
	return res, err
}

// MergeManifestFiles is MergeManifests over manifest bundle paths.
func MergeManifestFiles(opt Options, paths []string) (*Result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("expt: merge: no manifest files")
	}
	manifests := make([]*CampaignManifest, len(paths))
	for i, p := range paths {
		m, err := ReadCampaignManifestFile(p)
		if err != nil {
			return nil, err
		}
		manifests[i] = m
	}
	return MergeManifests(opt, manifests)
}
