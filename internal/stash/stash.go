// Package stash models OSG's Stash Cache (now OSDF): a content
// distribution network that FDW uses to deliver the Singularity image,
// the recyclable .npy distance matrices, and the large Phase B .mseed
// archives to execute nodes. The first fetch of an object at a site
// pays origin bandwidth; subsequent fetches hit the regional cache.
package stash

import (
	"fmt"
	"sync"

	"fdw/internal/obs"
)

// Object identifies a cached artifact.
type Object struct {
	Key   string
	Bytes int64
}

// Config sets the transfer-rate model.
type Config struct {
	OriginBps float64 // origin (cold) bandwidth, bytes/s
	CacheBps  float64 // regional cache (hot) bandwidth, bytes/s
	LatencyS  float64 // fixed per-transfer setup latency, seconds
}

// DefaultConfig reflects observed OSDF behaviour: ~50 MB/s cold,
// ~200 MB/s from a warm regional cache, a few seconds of setup.
func DefaultConfig() Config {
	return Config{OriginBps: 50e6, CacheBps: 200e6, LatencyS: 3}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.OriginBps <= 0 || c.CacheBps <= 0 {
		return fmt.Errorf("stash: non-positive bandwidth")
	}
	if c.LatencyS < 0 {
		return fmt.Errorf("stash: negative latency")
	}
	return nil
}

// Cache tracks per-site warmth of objects. It is safe for concurrent
// use (the DES is single-threaded, but examples exercise it directly).
type Cache struct {
	cfg Config

	mu   sync.Mutex
	warm map[string]map[string]bool // site → key → cached
	hits int
	miss int

	obs *obs.Registry
	met stashMetrics
}

// stashMetrics holds the cache's metric handles, resolved once in
// SetObs so TransferSeconds — called for every input delivery in the
// simulation — skips the registry's name+label lookup.
type stashMetrics struct {
	hits, misses            *obs.Counter
	originBytes, cacheBytes *obs.Counter
}

// New returns an empty cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, warm: map[string]map[string]bool{}}, nil
}

// SetObs attaches a metrics registry (nil disables instrumentation).
// Transfer costs are computed exactly as before; the registry only
// mirrors the hit/miss/bytes tallies.
func (c *Cache) SetObs(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obs = r
	if r == nil {
		c.met = stashMetrics{}
		return
	}
	c.met = stashMetrics{
		hits:        r.Counter("fdw_stash_hits_total"),
		misses:      r.Counter("fdw_stash_misses_total"),
		originBytes: r.Counter("fdw_stash_bytes_total", "tier", "origin"),
		cacheBytes:  r.Counter("fdw_stash_bytes_total", "tier", "cache"),
	}
}

// TransferSeconds returns the time to deliver obj to site. It does NOT
// mark the object warm: a transfer can still be aborted mid-flight (an
// injected TransferFail kills the attempt as the input lands), so the
// caller must call Commit once the delivery actually succeeds. Zero-byte
// objects cost only the setup latency.
func (c *Cache) TransferSeconds(site string, obj Object) float64 {
	if obj.Bytes < 0 {
		obj.Bytes = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bps := c.cfg.OriginBps
	warm := c.warm[site][obj.Key]
	if warm {
		bps = c.cfg.CacheBps
		c.hits++
	} else {
		c.miss++
	}
	if c.obs != nil {
		if warm {
			c.met.hits.Inc()
			c.met.cacheBytes.Add(uint64(obj.Bytes))
		} else {
			c.met.misses.Inc()
			c.met.originBytes.Add(uint64(obj.Bytes))
		}
	}
	return c.cfg.LatencyS + float64(obj.Bytes)/bps
}

// Commit records a successful delivery of key to site: later fetches
// there hit the regional cache. Callers commit only after the transfer
// completed — an aborted transfer leaves the cache cold, so the retry
// pays origin bandwidth again.
func (c *Cache) Commit(site, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markWarm(site, key)
}

// markWarm requires c.mu held.
func (c *Cache) markWarm(site, key string) {
	siteMap := c.warm[site]
	if siteMap == nil {
		siteMap = map[string]bool{}
		c.warm[site] = siteMap
	}
	siteMap[key] = true
}

// Stats returns cumulative cache hits and misses.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.miss
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (c *Cache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
