package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fdw/internal/sim"
)

// fdwexp -status: a machine-readable inventory of manifest bundles —
// which cells each bundle completed, which remain, fingerprints, and
// sim-clock provenance — plus a campaign-level rollup across bundles.
// Before this existed, exit code 3 was the only signal that a bundle
// set was resumable.

// BundleStatus describes one manifest bundle on disk.
type BundleStatus struct {
	File string `json:"file"`
	// Error is set when the file could not be read or validated; the
	// remaining fields are then zero.
	Error       string `json:"error,omitempty"`
	Campaign    string `json:"campaign,omitempty"`
	Shard       string `json:"shard,omitempty"`
	Leased      bool   `json:"leased,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Complete reports the bundle's own ledger: for hash-partitioned
	// shards, every owned cell done; leased worker bundles only record
	// completions, so they are always self-complete — campaign-level
	// coverage lives in CampaignStatus.
	Complete        bool     `json:"complete"`
	CellsTotal      int      `json:"cells_total"`
	CellsDone       int      `json:"cells_done"`
	IncompleteCells []string `json:"incomplete_cells,omitempty"`
	// SimMax is the bundle's sim-clock provenance: the largest per-cell
	// final kernel reading.
	SimMax sim.Time `json:"sim_max"`
}

// CampaignStatus rolls up every readable bundle of one (campaign,
// fingerprint, partition) group.
type CampaignStatus struct {
	Campaign    string `json:"campaign"`
	Fingerprint string `json:"fingerprint"`
	Leased      bool   `json:"leased,omitempty"`
	Total       int    `json:"partition_total"`
	Bundles     int    `json:"bundles"`
	// OptionsMatch reports whether the fingerprint matches the options
	// this status run was invoked with; only then are CellsTotal,
	// IncompleteCells, and Complete computable.
	OptionsMatch bool `json:"options_match"`
	CellsTotal   int  `json:"cells_total,omitempty"`
	// CellsDone is the union of done cells across the group's bundles.
	CellsDone int `json:"cells_done"`
	// Conflicts lists cells stored with disagreeing digests across
	// bundles — a determinism violation a merge would refuse.
	Conflicts       []string `json:"conflict_cells,omitempty"`
	Complete        bool     `json:"complete"`
	IncompleteCells []string `json:"incomplete_cells,omitempty"`
	SimMax          sim.Time `json:"sim_max"`
}

// StatusReport is the full -status output.
type StatusReport struct {
	Bundles   []BundleStatus   `json:"bundles"`
	Campaigns []CampaignStatus `json:"campaigns,omitempty"`
}

// HasErrors reports whether any bundle failed to read or validate.
func (r *StatusReport) HasErrors() bool {
	for _, b := range r.Bundles {
		if b.Error != "" {
			return true
		}
	}
	return false
}

// Resumable reports whether any bundle or options-matched campaign is
// incomplete — the condition fdwexp -status exits 3 on.
func (r *StatusReport) Resumable() bool {
	for _, b := range r.Bundles {
		if b.Error == "" && !b.Complete {
			return true
		}
	}
	for _, c := range r.Campaigns {
		if c.OptionsMatch && !c.Complete {
			return true
		}
	}
	return false
}

// StatusPaths expands -status arguments: a directory contributes its
// *.json entries sorted by name, a file contributes itself.
func StatusPaths(args []string) ([]string, error) {
	var paths []string
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			paths = append(paths, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("expt: status: no manifest bundles found")
	}
	return paths, nil
}

// Status inventories the given manifest bundles. Unreadable bundles,
// and bundles listing cells their campaign does not have under opt,
// become error entries rather than failing the whole report; opt is
// only used to decide OptionsMatch and enumerate canonical cells for
// matching campaigns.
func Status(opt Options, paths []string) (*StatusReport, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	rep := &StatusReport{}
	type groupKey struct {
		campaign, fp string
		leased       bool
		total        int
	}
	var groupOrder []groupKey
	groups := map[groupKey][]*CampaignManifest{}
	// handles caches each campaign opened under opt; nil when opt does
	// not describe a registered campaign of that name.
	handles := map[string]*CampaignHandle{}
	matching := func(m *CampaignManifest) *CampaignHandle {
		h, seen := handles[m.Campaign]
		if !seen {
			h, _ = OpenCampaign(m.Campaign, opt)
			handles[m.Campaign] = h
		}
		if h == nil || h.fp != m.Fingerprint {
			return nil
		}
		return h
	}
	for _, p := range paths {
		m, err := ReadCampaignManifestFile(p)
		if err == nil {
			if h := matching(m); h != nil {
				err = unknownCell(m, h.pos)
			}
		}
		if err != nil {
			rep.Bundles = append(rep.Bundles, BundleStatus{File: p, Error: err.Error()})
			continue
		}
		bs := BundleStatus{
			File:        p,
			Campaign:    m.Campaign,
			Shard:       m.Shard.String(),
			Leased:      m.Leased,
			Fingerprint: m.Fingerprint,
			Complete:    m.Complete(),
			CellsTotal:  len(m.Ledger.Nodes),
			CellsDone:   m.Ledger.DoneCount(),
			SimMax:      m.SimMax,
		}
		for _, n := range m.Ledger.Nodes {
			if !n.Done {
				bs.IncompleteCells = append(bs.IncompleteCells, n.Name)
			}
		}
		rep.Bundles = append(rep.Bundles, bs)
		k := groupKey{m.Campaign, m.Fingerprint, m.Leased, m.Shard.Total}
		if _, seen := groups[k]; !seen {
			groupOrder = append(groupOrder, k)
		}
		groups[k] = append(groups[k], m)
	}

	for _, k := range groupOrder {
		ms := groups[k]
		cs := CampaignStatus{
			Campaign:    k.campaign,
			Fingerprint: k.fp,
			Leased:      k.leased,
			Total:       k.total,
			Bundles:     len(ms),
		}
		merged, conflicts := unionCells(ms)
		for _, cf := range conflicts {
			cs.Conflicts = append(cs.Conflicts, cf.id)
		}
		for _, m := range ms {
			cs.SimMax = max(cs.SimMax, m.SimMax)
		}
		cs.CellsDone = len(merged)
		if h := matching(ms[0]); h != nil {
			cs.OptionsMatch = true
			cs.CellsTotal = len(h.ids)
			for _, id := range h.ids {
				if _, ok := merged[id]; !ok {
					cs.IncompleteCells = append(cs.IncompleteCells, id)
				}
			}
			cs.Complete = len(cs.IncompleteCells) == 0 && len(cs.Conflicts) == 0
		}
		rep.Campaigns = append(rep.Campaigns, cs)
	}
	return rep, nil
}

// WriteStatus renders the report as indented JSON.
func WriteStatus(w io.Writer, rep *StatusReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
