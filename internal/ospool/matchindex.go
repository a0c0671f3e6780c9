package ospool

import (
	"strconv"

	"fdw/internal/classad"
	"fdw/internal/htcondor"
	"fdw/internal/sim"
)

// This file is the matchmaking index (DESIGN.md §12): the per-site
// free-glidein heaps, the requirements-signature match-mask cache, and
// the per-owner negotiation cursors. Together they replace the seed
// negotiator's per-job linear scan over every free glidein with a walk
// over at most len(sites) candidates — while provably selecting the
// same glidein for the same job in the same order.
//
// The equivalence rests on two invariants of the seed code:
//
//  1. p.glideins was always sorted ascending by glidein id (ids are
//     allocated in arrival order and every removal preserved order), so
//     "first matching free glidein in scan order" ≡ "matching free
//     glidein with the smallest id".
//  2. Glidein ads are constant within a site (Cpus, Memory,
//     HasSingularity, GLIDEIN_Site; per-pilot speed is not advertised),
//     so match(job, glidein) is a function of (job, site) — one bit per
//     site, cacheable as a mask.
//
// Hence: keep free glideins in a min-heap by id per site, and resolve a
// job by walking candidate sites in ascending order of their minimum
// free id, stopping at the first non-vetoed site whose mask bit is set.
// That site's heap minimum is exactly the glidein the linear scan would
// have chosen, and the circuit-breaker VetoMatch consultations hit the
// same sites the scan's prefix would have touched (VetoMatch's
// open→half-open transition is idempotent at a fixed now, so per-site
// dedup of consultations cannot change breaker state).

// freeHeap is a min-heap of idle glideins keyed by id, implementing
// container/heap. Swap maintains each glidein's heapIdx so removal by
// handle is O(log n).
type freeHeap []*glidein

func (h freeHeap) Len() int           { return len(h) }
func (h freeHeap) Less(i, j int) bool { return h[i].id < h[j].id }
func (h freeHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *freeHeap) Push(x any) {
	g := x.(*glidein)
	g.heapIdx = len(*h)
	*h = append(*h, g)
}

func (h *freeHeap) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	g.heapIdx = -1
	*h = old[:n-1]
	return g
}

// negOwner is one owner's negotiation state for a single cycle: lazy
// cursors into each schedd's per-owner idle queue, consumed round-robin
// so concurrent DAGMans under one user progress together. The cursor
// round-robin yields exactly the seed's positional interleaved merge:
// within a cycle only the negotiator removes idle jobs, and only at
// positions a cursor has already yielded, so "next live entry after the
// cursor" coincides with the merge's snapshot order.
type negOwner struct {
	name    string
	running int
	cursors []htcondor.IdleCursor
	schedds []*htcondor.Schedd
	cur     int    // cursor index the next peek starts from
	cycle   uint64 // negotiation cycle the fields above belong to
}

// peek returns the owner's head-of-line job and its schedd without
// consuming it (nil when the owner's queues are exhausted). Repeated
// peeks return the same job.
func (o *negOwner) peek() (*htcondor.Job, *htcondor.Schedd) {
	for tried := 0; tried < len(o.cursors); tried++ {
		i := (o.cur + tried) % len(o.cursors)
		if j := o.cursors[i].Peek(); j != nil {
			o.cur = i
			return j, o.schedds[i]
		}
	}
	return nil, nil
}

// pop consumes the job the last peek returned and advances the
// round-robin to the next schedd.
func (o *negOwner) pop() {
	o.cursors[o.cur].Pop()
	o.cur = (o.cur + 1) % len(o.cursors)
}

// siteCand is one entry in findSlot's candidate walk.
type siteCand struct {
	idx   int // site index
	minID int // smallest free glidein id at that site
}

// findSlot returns the free glidein the seed linear scan would have
// matched to job — the matching, non-vetoed glidein with the smallest
// id — or nil. Candidate sites are walked in ascending order of their
// minimum free id; VetoMatch is consulted once per visited site, which
// reproduces the scan's breaker consultations up to idempotent repeats.
func (p *Pool) findSlot(job *htcondor.Job, now sim.Time) *glidein {
	mask := p.matchMask(job)
	cands := p.cands[:0]
	for i := range p.sites {
		if h := p.sites[i].free; len(h) > 0 {
			cands = append(cands, siteCand{idx: i, minID: h[0].id})
		}
	}
	// Insertion sort: the site count is small and this runs per job.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].minID < cands[j-1].minID; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	p.cands = cands
	for _, c := range cands {
		if p.recovery != nil && p.recovery.VetoMatch(p.sites[c.idx].cfg.Name, now) {
			continue // open circuit breaker: site sits out this cycle
		}
		if mask[c.idx] {
			return p.sites[c.idx].free[0]
		}
	}
	return nil
}

// matchMask returns job's per-site match mask, computing it at most
// once per distinct requirements signature. Masks stay valid for the
// whole run: site ads never change, and every job attribute the mask
// depends on is immutable after submission.
func (p *Pool) matchMask(job *htcondor.Job) []bool {
	if m, ok := p.maskByJob[job]; ok {
		return m
	}
	p.scratch = p.matchSig(p.scratch[:0], job)
	m, ok := p.maskBySig[string(p.scratch)] // no allocation on a hit
	if !ok {
		m = make([]bool, len(p.sites))
		for i := range p.sites {
			ok, err := job.Matches(p.sites[i].ad)
			m[i] = err == nil && ok
		}
		p.maskBySig[string(p.scratch)] = m
	}
	p.maskByJob[job] = m
	return m
}

// matchSig appends to buf a key covering everything Job.Matches reads:
// the explicit RequestCpus/RequestMemory gates, the Requirements
// source, and — for expressions that reference job-side (MY)
// attributes — the values of exactly those attributes, as reported by
// classad.ReferencedAttrs. Two jobs with equal signatures match the
// same set of sites.
func (p *Pool) matchSig(buf []byte, job *htcondor.Job) []byte {
	buf = strconv.AppendInt(buf, int64(job.RequestCpus), 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(job.RequestMemoryMB), 10)
	buf = append(buf, '|')
	buf = append(buf, job.Requirements...)
	if job.Requirements != "" {
		if attrs := p.reqMyAttrs(job.Requirements); len(attrs) > 0 {
			ad := job.MatchAd()
			for _, a := range attrs {
				buf = append(buf, '|')
				buf = append(buf, a...)
				buf = append(buf, '=')
				if v, ok := ad.Lookup(a); ok {
					// Length-prefix the rendered value so attribute
					// values containing the delimiters cannot alias
					// two different signatures.
					vs := v.String()
					buf = strconv.AppendInt(buf, int64(len(vs)), 10)
					buf = append(buf, ':')
					buf = append(buf, vs...)
				}
			}
		}
	}
	return buf
}

// reqMyAttrs returns the MY-side attribute names a Requirements
// expression references, memoized per source string. A malformed
// expression yields nil (Matches will fail it per ad anyway, equally
// for every job sharing the source).
func (p *Pool) reqMyAttrs(src string) []string {
	if attrs, ok := p.reqAttrs[src]; ok {
		return attrs
	}
	var attrs []string
	if e, err := classad.Parse(src); err == nil {
		attrs = classad.ReferencedAttrs(e)
	}
	p.reqAttrs[src] = attrs
	return attrs
}
