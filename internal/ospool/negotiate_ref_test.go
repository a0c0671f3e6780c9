package ospool

import (
	"sort"

	"fdw/internal/htcondor"
)

// This file retains the seed (pre-index) negotiator as the executable
// specification of matchmaking order: per cycle it copies every owner's
// idle jobs (read through each schedd's owner cursors) into interleaved
// queues and linearly scans every free glidein per job. The production path (negotiateIndexed)
// must select the same matches in the same order;
// TestIndexedNegotiatorMatchesReference drives both over randomized
// pools and asserts the claim sequences are identical. Switch it in
// with Pool.negotiator — it is never used outside tests.

// ownerState aggregates fair-share accounting per owner.
type ownerState struct {
	owner     string
	running   int
	perSchedd [][]*htcondor.Job // idle jobs grouped by schedd
	queue     []*htcondor.Job   // interleaved merge of perSchedd
	schedd    map[*htcondor.Job]*htcondor.Schedd
}

// mergeInterleaved round-robins across the owner's schedds so that
// concurrent DAGMans under one user progress together instead of
// draining in schedd order.
func (os *ownerState) mergeInterleaved() {
	total := 0
	for _, q := range os.perSchedd {
		total += len(q)
	}
	os.queue = make([]*htcondor.Job, 0, total)
	for i := 0; total > 0; i++ {
		for _, q := range os.perSchedd {
			if i < len(q) {
				os.queue = append(os.queue, q[i])
				total--
			}
		}
	}
}

// negotiateReference runs one fair-share matchmaking cycle exactly the
// way the seed implementation did. The free-glidein list is
// reconstructed in ascending id order — the order the seed's append-
// only p.glideins slice maintained by construction.
func (p *Pool) negotiateReference() {
	// Build per-owner queues from all schedds.
	owners := map[string]*ownerState{}
	var order []string
	for _, s := range p.schedds {
		for _, owner := range s.AppendIdleOwners(nil) {
			os, ok := owners[owner]
			if !ok {
				os = &ownerState{owner: owner, running: p.ownerRunning[owner], schedd: map[*htcondor.Job]*htcondor.Schedd{}}
				owners[owner] = os
				order = append(order, owner)
			}
			var jobs []*htcondor.Job
			for c := s.OwnerIdleCursor(owner); c.Peek() != nil; c.Pop() {
				j := c.Peek()
				jobs = append(jobs, j)
				os.schedd[j] = s
			}
			os.perSchedd = append(os.perSchedd, jobs)
		}
	}
	if len(owners) == 0 {
		return
	}
	for _, os := range owners {
		os.mergeInterleaved()
	}
	sort.Strings(order) // deterministic iteration

	// Free slot list, ascending glidein id (the seed's scan order).
	var free []*glidein
	for i := range p.sites {
		free = append(free, p.sites[i].free...)
	}
	sort.Slice(free, func(i, j int) bool { return free[i].id < free[j].id })

	matches := 0
	// Round-robin across owners ordered by effective usage (fewest
	// running first) — HTCondor's fair-share in miniature.
	for matches < p.cfg.MatchesPerCycle && len(free) > 0 {
		sort.SliceStable(order, func(a, b int) bool {
			return owners[order[a]].running < owners[order[b]].running
		})
		progress := false
		for _, name := range order {
			os := owners[name]
			if len(os.queue) == 0 {
				continue
			}
			if matches >= p.cfg.MatchesPerCycle || len(free) == 0 {
				break
			}
			job := os.queue[0]
			slot := -1
			for i, g := range free {
				if p.recovery != nil && p.recovery.VetoMatch(g.site.Name, p.kernel.Now()) {
					continue // open circuit breaker: site sits out this cycle
				}
				ok, err := job.Matches(g.ad)
				if err == nil && ok {
					slot = i
					break
				}
			}
			if slot < 0 {
				// Nothing in the pool matches this job now; skip the
				// owner's head-of-line job this cycle.
				os.queue = os.queue[1:]
				continue
			}
			g := free[slot]
			free = append(free[:slot], free[slot+1:]...)
			os.queue = os.queue[1:]
			os.running++
			p.claim(g, job, os.schedd[job])
			matches++
			progress = true
		}
		if !progress {
			break
		}
	}
	if p.obs != nil && matches > 0 {
		p.met.matches.Add(uint64(matches))
		p.slotGauges()
	}
}
