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

// kernels expands station s's three kernels for subfault sf into
// fresh slices of Nsamples samples each.
func (g *GreensFunctions) kernels(s, sf int) [3][]float64 {
	var k [3][]float64
	for c := range k {
		k[c] = make([]float64, g.Cfg.Nsamples)
	}
	g.tab.expand(&k, &g.params[s][sf], 0, g.Cfg.Nsamples)
	return k
}

// ToRecords flattens the kernels for one subfault into mseed records —
// the unit that Phase B ships through the Stash cache. An out-of-range
// subfault or an inconsistent set is an error, never a panic; an
// empty station list yields an empty (non-nil-error) record set, the
// valid degenerate case.
func (g *GreensFunctions) ToRecords(subfault int) ([]mseed.Record, error) {
	if subfault < 0 || subfault >= g.NSub {
		return nil, fmt.Errorf("fakequakes: subfault %d out of %d", subfault, g.NSub)
	}
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	recs := make([]mseed.Record, 0, len(g.Stations)*3)
	for s, st := range g.Stations {
		k := g.kernels(s, subfault)
		for c, ch := range Components {
			recs = append(recs, mseed.Record{
				Network: "CL",
				Station: st.Name,
				Channel: ch,
				Start:   0,
				Dt:      g.Cfg.Dt,
				Samples: k[c],
			})
		}
	}
	return recs, nil
}
