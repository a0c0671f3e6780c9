package stash

import (
	"testing"
	"testing/quick"
)

func newCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{OriginBps: 100, CacheBps: 1000, LatencyS: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColdThenWarm(t *testing.T) {
	c := newCache(t)
	obj := Object{Key: "image.sif", Bytes: 1000}
	cold := c.TransferSeconds("siteA", obj)
	c.Commit("siteA", obj.Key)
	warm := c.TransferSeconds("siteA", obj)
	if cold != 2+10 {
		t.Fatalf("cold = %v, want 12", cold)
	}
	if warm != 2+1 {
		t.Fatalf("warm = %v, want 3", warm)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d", hits, misses)
	}
}

// TestTransferDoesNotWarmWithoutCommit pins the warm-on-failure fix:
// pricing a transfer must not warm the cache — only Commit (a completed
// delivery) may, so an aborted transfer's retry pays origin bandwidth.
func TestTransferDoesNotWarmWithoutCommit(t *testing.T) {
	c := newCache(t)
	obj := Object{Key: "gf.mseed", Bytes: 1000}
	first := c.TransferSeconds("siteA", obj)
	second := c.TransferSeconds("siteA", obj)
	if first != second || first != 2+10 {
		t.Fatalf("uncommitted refetch = %v then %v, want cold 12 both times", first, second)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits %d misses %d, want 0/2", hits, misses)
	}
}

func TestSitesAreIndependent(t *testing.T) {
	c := newCache(t)
	obj := Object{Key: "gf.mseed", Bytes: 500}
	c.TransferSeconds("siteA", obj)
	c.Commit("siteA", obj.Key)
	if got := c.TransferSeconds("siteB", obj); got != 2+5 {
		t.Fatalf("siteB first fetch = %v, want cold 7", got)
	}
	if got := c.TransferSeconds("siteA", obj); got != 2+0.5 {
		t.Fatalf("siteA warm fetch = %v, want 2.5", got)
	}
}

func TestPrewarm(t *testing.T) {
	c := newCache(t)
	c.Prewarm("siteA", "image.sif")
	got := c.TransferSeconds("siteA", Object{Key: "image.sif", Bytes: 1000})
	if got != 2+1 {
		t.Fatalf("prewarmed fetch = %v, want 3", got)
	}
	if hr := c.HitRate(); hr != 1 {
		t.Fatalf("hit rate %v, want 1", hr)
	}
}

func TestZeroAndNegativeBytes(t *testing.T) {
	c := newCache(t)
	if got := c.TransferSeconds("s", Object{Key: "empty", Bytes: 0}); got != 2 {
		t.Fatalf("zero bytes = %v, want latency only", got)
	}
	if got := c.TransferSeconds("s", Object{Key: "neg", Bytes: -5}); got != 2 {
		t.Fatalf("negative bytes = %v, want latency only", got)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{OriginBps: 0, CacheBps: 1, LatencyS: 0},
		{OriginBps: 1, CacheBps: 0, LatencyS: 0},
		{OriginBps: 1, CacheBps: 1, LatencyS: -1},
	} {
		if _, err := New(cfg); err == nil {
			t.Fatalf("invalid config accepted: %+v", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateNoTraffic(t *testing.T) {
	if newCache(t).HitRate() != 0 {
		t.Fatal("hit rate of empty cache should be 0")
	}
}

func TestPropertyWarmNeverSlowerThanCold(t *testing.T) {
	f := func(bytesRaw uint32) bool {
		c, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		obj := Object{Key: "k", Bytes: int64(bytesRaw)}
		cold := c.TransferSeconds("s", obj)
		c.Commit("s", obj.Key)
		warm := c.TransferSeconds("s", obj)
		return warm <= cold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Prewarm marks obj as already cached at site (e.g. the Singularity
// image distributed ahead of the run).
func (c *Cache) Prewarm(site string, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.markWarm(site, key)
}
