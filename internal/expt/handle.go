package expt

import (
	"encoding/json"
	"fmt"
	"io"
)

// A CampaignHandle exposes a shardable campaign to external drivers —
// the fault-tolerant scheduler in internal/sched — without exporting
// the campaign struct itself: the canonical cell-id list, the options
// fingerprint, a per-cell runner producing manifest-ready records, and
// the shared finalizer. RunCell is deterministic per cell id (same
// options, same bytes), which is what lets the scheduler arbitrate
// duplicate completions by digest equality and lets any execution
// order re-finalize to the byte-identical unsharded report.
type CampaignHandle struct {
	c   *campaign
	opt Options
	ctx *campaignCtx
	ids []string
	pos map[string]int
	fp  string
}

// OpenCampaign validates opt against the named campaign and returns a
// handle over its canonical cells.
func OpenCampaign(name string, opt Options) (*CampaignHandle, error) {
	c, err := campaignByName(name)
	if err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ids, err := c.cells(opt)
	if err != nil {
		return nil, err
	}
	fp, err := opt.Fingerprint(c.name)
	if err != nil {
		return nil, err
	}
	pos := make(map[string]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	return &CampaignHandle{c: c, opt: opt, ctx: &campaignCtx{}, ids: ids, pos: pos, fp: fp}, nil
}

// Name returns the campaign name.
func (h *CampaignHandle) Name() string { return h.c.name }

// Fingerprint returns the options fingerprint manifests written for
// this campaign must carry.
func (h *CampaignHandle) Fingerprint() string { return h.fp }

// CellIDs returns the canonical cell-id list. The slice is shared;
// callers must not mutate it.
func (h *CampaignHandle) CellIDs() []string { return h.ids }

// RunCell executes one cell by id and returns its manifest record:
// the compact-JSON result bytes, their digest, the cell simulation's
// final sim-clock reading and, when metered, the cell's metrics (also
// absorbed into the handle's registry). Digests are computed over
// compact json.Marshal bytes, the form Go's encoder passes through
// RawMessage unchanged.
func (h *CampaignHandle) RunCell(id string) (CellRecord, error) {
	i, ok := h.pos[id]
	if !ok {
		return CellRecord{}, fmt.Errorf("expt: campaign %s has no cell %q", h.c.name, id)
	}
	result, end, reg, err := h.c.run(h.opt, h.ctx, i)
	if err != nil {
		return CellRecord{}, err
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return CellRecord{}, fmt.Errorf("expt: cell %q: %w", id, err)
	}
	rec := CellRecord{ID: id, Result: raw, Digest: cellDigest(raw), SimEnd: end}
	if h.opt.Obs != nil {
		rec.Metrics = reg.Snapshot()
		if err := h.opt.Obs.Absorb(rec.Metrics); err != nil {
			return CellRecord{}, fmt.Errorf("expt: cell %q: %w", id, err)
		}
	}
	return rec, nil
}

// Finalize decodes a complete record set (exactly one record per
// canonical cell) and runs the campaign's finalizer, printing the
// report to out (opt.Out when out is nil) and returning the merged
// rows. This is the same finalize code path the unsharded entry points
// and -merge use, so the bytes match an unsharded run exactly.
func (h *CampaignHandle) Finalize(out io.Writer, records map[string]CellRecord) (*MergeResult, error) {
	if len(records) != len(h.ids) {
		return nil, fmt.Errorf("expt: finalize: %d records for %d cells of %s", len(records), len(h.ids), h.c.name)
	}
	results := make([]any, len(h.ids))
	for i, id := range h.ids {
		rec, ok := records[id]
		if !ok {
			return nil, fmt.Errorf("expt: finalize: missing cell %q", id)
		}
		v, err := h.c.decode(rec.Result)
		if err != nil {
			return nil, fmt.Errorf("expt: finalize: cell %q: %w", id, err)
		}
		results[i] = v
	}
	opt := h.opt
	if out != nil {
		opt.Out = out
	}
	rows, err := h.c.finalize(opt, results)
	if err != nil {
		return nil, err
	}
	return &MergeResult{Campaign: h.c.name, CSVName: h.c.csvName, Rows: rows, c: h.c}, nil
}
