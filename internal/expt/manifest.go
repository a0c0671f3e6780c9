package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"fdw/internal/core/atomicfile"
	"fdw/internal/obs"
	"fdw/internal/ospool"
	"fdw/internal/sim"
)

// A CampaignManifest is one shard's output bundle: which cells of a
// campaign the shard owns, which are done, their JSON-encoded results
// with integrity digests, sim-clock provenance and, when metered, each
// cell's metrics snapshot. Its completion ledger has one node per
// cell. NewBundle builds every bundle and LoadBundle reads one back for
// resume.
//
// Manifests are written as compact JSON: cell results are
// json.RawMessage payloads whose bytes must survive re-encoding
// unchanged for the digests to stay valid, and Go's encoder passes
// compact RawMessage bytes through verbatim.
type CampaignManifest struct {
	// Format is the manifest schema version (CampaignManifestFormat).
	Format int `json:"format"`
	// Campaign names the sharded experiment (a registered campaign).
	Campaign string `json:"campaign"`
	// Shard is this bundle's slot in the partition. For leased bundles
	// (see Leased) Index/Total identify the worker in its fleet instead
	// of a hash-partition slot.
	Shard ShardSpec `json:"shard"`
	// Leased marks a scheduler worker bundle: cells were assigned by
	// coordinator leases rather than the static FNV hash partition, so
	// any worker may own any cell. Validation skips the hash-ownership
	// check, and merges establish coverage by union-with-digest-
	// arbitration instead of per-shard ownership (DESIGN.md §15).
	Leased bool `json:"leased,omitempty"`
	// Fingerprint pins the Options the shard ran under; a merge or
	// resume with different options must fail loudly rather than mix
	// incompatible results.
	Fingerprint string `json:"fingerprint"`
	// Ledger is the cell-completion record: one node per owned cell,
	// in canonical cell order.
	Ledger Ledger `json:"ledger"`
	// Cells holds the completed cells' results, in canonical order.
	Cells []CellRecord `json:"cells"`
	// SimMax is the largest per-cell final sim-clock reading — the
	// shard's simulated-time provenance.
	SimMax sim.Time `json:"sim_max"`
}

// Ledger is a bundle's cell-completion record, the structured form of
// a rescue DAG's DONE markings: schema version (LedgerFormat), the
// run's name, and its cells in canonical order with their done flags.
// Its JSON is the one bundles have always carried, so old bundles load.
type Ledger struct {
	Format int          `json:"format"`
	DAG    string       `json:"dag"`
	Nodes  []LedgerNode `json:"nodes"`
}

// LedgerNode is one cell's completion record.
type LedgerNode struct {
	Name string `json:"name"`
	Done bool   `json:"done"`
}

// LedgerFormat is the current ledger schema version.
const LedgerFormat = 1

// Validate checks the ledger's structural invariants: a supported
// format, a named run, and unique non-empty node names.
func (l Ledger) Validate() error {
	if l.Format != LedgerFormat {
		return fmt.Errorf("expt: ledger format %d, want %d", l.Format, LedgerFormat)
	}
	if l.DAG == "" {
		return fmt.Errorf("expt: ledger has no dag name")
	}
	seen := make(map[string]bool, len(l.Nodes))
	for _, n := range l.Nodes {
		if n.Name == "" || seen[n.Name] {
			return fmt.Errorf("expt: ledger node %q is empty or listed twice", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// DoneCount returns how many listed nodes are done.
func (l Ledger) DoneCount() int {
	n := 0
	for _, node := range l.Nodes {
		if node.Done {
			n++
		}
	}
	return n
}

// ShardSpec identifies shard Index of Total (1-based, like -shard 2/4).
type ShardSpec struct {
	Index int `json:"index"`
	Total int `json:"total"`
}

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Total) }

func (s ShardSpec) validate() error {
	if s.Total < 1 || s.Index < 1 || s.Index > s.Total {
		return fmt.Errorf("expt: shard %d/%d out of range", s.Index, s.Total)
	}
	return nil
}

// CellRecord is one completed cell's stored result.
type CellRecord struct {
	ID string `json:"id"`
	// Result is the cell result exactly as json.Marshal produced it;
	// Digest is the FNV-1a64 of those bytes.
	Result json.RawMessage `json:"result"`
	Digest string          `json:"digest"`
	// SimEnd is the cell simulation's final kernel clock.
	SimEnd sim.Time `json:"sim_end"`
	// Metrics is the cell's own registry snapshot when metered; it is
	// outside the digest, since metrics never decide a result.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// RollupMetrics absorbs the records' cell metrics, in the (canonical)
// order given, into a fresh registry: the rollup -shard and -merge
// write, byte-identical to an in-process run at any -j.
func RollupMetrics(records []CellRecord) (*obs.Snapshot, error) {
	reg := obs.NewRegistry(nil)
	for _, rec := range records {
		if err := reg.Absorb(rec.Metrics); err != nil {
			return nil, fmt.Errorf("cell %q: %w", rec.ID, err)
		}
	}
	return reg.Snapshot(), nil
}

// CampaignManifestFormat is the current campaign-manifest schema
// version.
const CampaignManifestFormat = 1

// shardOf deterministically assigns a cell to a 1-based shard index:
// FNV-1a64 over "campaign/cellID", reduced mod Total. The hash depends
// only on the identity strings — never on worker count, enumeration
// order, or process — so every shard of a partition computes the same
// assignment independently.
func shardOf(campaign, cellID string, total int) int {
	h := fnv.New64a()
	h.Write([]byte(campaign))
	h.Write([]byte{'/'})
	h.Write([]byte(cellID))
	return int(h.Sum64()%uint64(total)) + 1
}

// ShardCells partitions a campaign's canonical cell list, returning
// the ids owned by shard index/total in canonical order.
func ShardCells(campaign string, ids []string, index, total int) []string {
	var owned []string
	for _, id := range ids {
		if shardOf(campaign, id, total) == index {
			owned = append(owned, id)
		}
	}
	return owned
}

// cellDigest is the integrity digest of a stored result payload.
func cellDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint condenses every result-affecting Options field (plus the
// campaign name) into a hash. Workers, Out, and Obs are excluded: they
// change neither cell results nor final bytes.
func (o Options) Fingerprint(campaign string) (string, error) {
	type pool struct {
		ospool.Config
		// FailureProb is always 0. ospool.Config once carried a settable
		// failure probability; the fingerprint is a persisted format,
		// so the member stays to let bundles written with it unset
		// still resume and merge.
		FailureProb float64
	}
	canon := struct {
		Campaign string   `json:"campaign"`
		Scale    float64  `json:"scale"`
		Seeds    []uint64 `json:"seeds"`
		Horizon  sim.Time `json:"horizon"`
		Pool     pool     `json:"pool"`
		// Recovery is always null, for the same reason: Options once
		// carried a settable recovery policy.
		Recovery *struct{} `json:"recovery"`
	}{Campaign: campaign, Scale: o.Scale, Seeds: o.Seeds, Horizon: o.Horizon, Pool: pool{Config: o.Pool}}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", fmt.Errorf("expt: fingerprint: %w", err)
	}
	return cellDigest(b), nil
}

// Write renders the manifest as compact JSON.
func (m *CampaignManifest) Write(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile atomically replaces path with the manifest (temp file +
// fsync + rename via atomicfile), so a kill mid-checkpoint leaves the
// previous complete manifest in place rather than a truncated one.
func (m *CampaignManifest) WriteFile(path string) error {
	return atomicfile.WriteFile(path, m.Write)
}

// ReadCampaignManifestFile reads and validates one manifest bundle
// written by WriteFile.
func ReadCampaignManifestFile(path string) (*CampaignManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := readCampaignManifest(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// readCampaignManifest decodes and validates one manifest bundle.
// Bundles are written whole, so anything but whitespace after the
// JSON value is corruption, not a second value to ignore.
func readCampaignManifest(r io.Reader) (*CampaignManifest, error) {
	var m CampaignManifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("expt: bad campaign manifest: %w", err)
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if err != nil {
		return nil, fmt.Errorf("expt: bad campaign manifest: %w", err)
	}
	if tail := bytes.TrimLeft(rest, " \t\r\n"); len(tail) > 0 {
		return nil, fmt.Errorf("expt: bad campaign manifest: trailing data at offset %d", dec.InputOffset()+int64(len(rest)-len(tail)))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Validate checks the manifest's internal invariants: schema version,
// shard spec, ledger well-formedness, ledger/cell agreement (exactly
// the done ledger nodes carry results, in the same order), shard
// ownership of every cell, and per-cell digest integrity.
func (m *CampaignManifest) Validate() error {
	if m.Format != CampaignManifestFormat {
		return fmt.Errorf("expt: campaign manifest format %d, want %d", m.Format, CampaignManifestFormat)
	}
	if m.Campaign == "" {
		return fmt.Errorf("expt: campaign manifest has no campaign name")
	}
	if err := m.Shard.validate(); err != nil {
		return err
	}
	if m.Fingerprint == "" {
		return fmt.Errorf("expt: campaign manifest has no options fingerprint")
	}
	if err := m.Ledger.Validate(); err != nil {
		return err
	}
	var done []string
	for _, n := range m.Ledger.Nodes {
		if !m.Leased && shardOf(m.Campaign, n.Name, m.Shard.Total) != m.Shard.Index {
			return fmt.Errorf("expt: cell %q does not belong to shard %s of %s", n.Name, m.Shard, m.Campaign)
		}
		if n.Done {
			done = append(done, n.Name)
		}
	}
	if len(done) != len(m.Cells) {
		return fmt.Errorf("expt: ledger marks %d cells done but %d results stored", len(done), len(m.Cells))
	}
	for i, c := range m.Cells {
		if c.ID != done[i] {
			return fmt.Errorf("expt: cell result %d is %q, ledger order says %q", i, c.ID, done[i])
		}
		// Write re-encodes a result as json.Marshal does (compact,
		// HTML-escaped); a result in any other form would be written
		// as bytes its digest does not cover.
		if canon, err := json.Marshal(c.Result); err != nil || !bytes.Equal(canon, c.Result) {
			return fmt.Errorf("expt: cell %q result is not compact JSON as json.Marshal writes it", c.ID)
		}
		if got := cellDigest(c.Result); got != c.Digest {
			return fmt.Errorf("expt: cell %q result digest %s does not match stored %s (corrupt manifest?)", c.ID, got, c.Digest)
		}
	}
	return nil
}

// Complete reports whether every owned cell is done.
func (m *CampaignManifest) Complete() bool {
	return m.Ledger.DoneCount() == len(m.Ledger.Nodes)
}

// slotName names a bundle's slot for messages: "shard i/N" for a
// hash-partitioned bundle, "worker i/N" for a leased one.
func slotName(leased bool, slot ShardSpec) string {
	if leased {
		return "worker " + slot.String()
	}
	return "shard " + slot.String()
}

// NewBundle assembles the manifest for one shard or scheduler worker
// slot from its completed records. The ledger lists ledgerIDs in the
// given (canonical) order, each marked done when done holds its
// record; a leased bundle records completions only, so its ledger
// skips the cells it has not done.
func NewBundle(campaign, fingerprint string, slot ShardSpec, leased bool, ledgerIDs []string, done map[string]CellRecord) *CampaignManifest {
	dag := fmt.Sprintf("%s-shard%s", campaign, slot)
	if leased {
		dag = fmt.Sprintf("%s-worker%dof%d", campaign, slot.Index, slot.Total)
	}
	m := &CampaignManifest{
		Format:      CampaignManifestFormat,
		Campaign:    campaign,
		Shard:       slot,
		Leased:      leased,
		Fingerprint: fingerprint,
		Ledger:      Ledger{Format: LedgerFormat, DAG: dag},
	}
	for _, id := range ledgerIDs {
		rec, ok := done[id]
		if !ok && leased {
			continue
		}
		m.Ledger.Nodes = append(m.Ledger.Nodes, LedgerNode{Name: id, Done: ok})
		if ok {
			m.Cells = append(m.Cells, rec)
			m.SimMax = max(m.SimMax, rec.SimEnd)
		}
	}
	return m
}

// LoadBundle reads the bundle at path for resuming the given slot: it
// must be the same campaign, slot, bundle kind and options
// fingerprint, and list only cells in known (the campaign's canonical
// cell positions). A missing file is an empty bundle.
func LoadBundle(path, campaign, fingerprint string, slot ShardSpec, leased bool, known map[string]int) (*CampaignManifest, error) {
	m, err := ReadCampaignManifestFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &CampaignManifest{}, nil
	}
	if err != nil {
		return nil, err
	}
	if m.Campaign != campaign || m.Shard != slot || m.Leased != leased {
		return nil, fmt.Errorf("expt: bundle %s is %s %s, want %s %s",
			path, m.Campaign, slotName(m.Leased, m.Shard), campaign, slotName(leased, slot))
	}
	if m.Fingerprint != fingerprint {
		return nil, fmt.Errorf("expt: bundle %s fingerprint %s does not match options fingerprint %s (different scale/seeds?)",
			path, m.Fingerprint, fingerprint)
	}
	if err := unknownCell(m, known); err != nil {
		return nil, err
	}
	return m, nil
}

// unknownCell fails naming the first ledger cell, in bundle order,
// that is not one of the campaign's canonical cells.
func unknownCell(m *CampaignManifest, known map[string]int) error {
	for _, n := range m.Ledger.Nodes {
		if _, ok := known[n.Name]; !ok {
			return fmt.Errorf("expt: %s %s bundle lists cell %q, which the campaign does not have", m.Campaign, slotName(m.Leased, m.Shard), n.Name)
		}
	}
	return nil
}

// A cellConflict is one cell stored under two different digests.
type cellConflict struct {
	id              string
	digest, other   string // the first stored digest, then the disagreeing one
	from, otherFrom string // slotName of the bundles holding each
}

func (c cellConflict) Error() string {
	return fmt.Sprintf("cell %q completed with conflicting digests: %s (%s) vs %s (%s) — refusing last-write-wins",
		c.id, c.digest, c.from, c.other, c.otherFrom)
}

// unionCells merges the bundles' stored records, first copy wins, and
// returns each cell whose copies disagree by digest once, at its first
// disagreement, in bundle order. A determinism violation is never
// resolved last-write-wins: callers fail on or list the conflicts.
func unionCells(ms []*CampaignManifest) (map[string]CellRecord, []cellConflict) {
	merged := map[string]CellRecord{}
	from := map[string]string{}
	reported := map[string]bool{}
	var conflicts []cellConflict
	for _, m := range ms {
		slot := slotName(m.Leased, m.Shard)
		for _, rec := range m.Cells {
			prev, ok := merged[rec.ID]
			if !ok {
				merged[rec.ID], from[rec.ID] = rec, slot
				continue
			}
			if prev.Digest != rec.Digest && !reported[rec.ID] {
				reported[rec.ID] = true
				conflicts = append(conflicts, cellConflict{rec.ID, prev.Digest, rec.Digest, from[rec.ID], slot})
			}
		}
	}
	return merged, conflicts
}
