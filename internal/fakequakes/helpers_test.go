package fakequakes

import (
	"fmt"

	"fdw/internal/mseed"
	"fdw/internal/sim"
)

// Test-only views of cache state and of a GF set as miniSEED records,
// and a random-magnitude draw over GenerateMw.

// Stats returns the cumulative hit and miss counts.
func (c *FactorCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached factors.
func (c *FactorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns the cumulative hit and miss counts.
func (c *GFCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Generate draws one rupture using rng. id labels the scenario
// (MudPy uses zero-padded run numbers such as "run000147").
func (g *Generator) Generate(id string, rng *sim.RNG) (*Rupture, error) {
	mw := rng.Uniform(g.MinMw, g.MaxMw)
	return g.GenerateMw(id, mw, rng)
}

// ToRecords flattens the kernels for one subfault into mseed records —
// the unit that Phase B ships through the Stash cache. An out-of-range
// subfault or an inconsistent kernel is an error, never a panic; an
// empty station list yields an empty (non-nil-error) record set, the
// valid degenerate case.
func (g *GreensFunctions) ToRecords(subfault int) ([]mseed.Record, error) {
	if subfault < 0 || subfault >= g.NSub {
		return nil, fmt.Errorf("fakequakes: subfault %d out of %d", subfault, g.NSub)
	}
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	for s := range g.Kernel {
		for sf := range g.Kernel[s] {
			if err := g.validateKernel(s, sf); err != nil {
				return nil, err
			}
		}
	}
	recs := make([]mseed.Record, 0, len(g.Stations)*3)
	for s, st := range g.Stations {
		for c, ch := range Components {
			recs = append(recs, mseed.Record{
				Network: "CL",
				Station: st.Name,
				Channel: ch,
				Start:   0,
				Dt:      g.Cfg.Dt,
				Samples: g.Kernel[s][subfault][c],
			})
		}
	}
	return recs, nil
}
