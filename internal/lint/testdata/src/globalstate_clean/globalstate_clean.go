// Package globalstate_clean keeps run state in the values that own it;
// package-level vars are set only by their declarations and init.
package globalstate_clean

import (
	"sync"
	"sync/atomic"
)

var limits = map[string]int{}

var limit = 8

var ready bool

var order = func() []string {
	ready = true // part of a declaration: runs at package initialization
	return []string{"b", "a"}
}()

func init() {
	limits["jobs"] = 16
	limit *= 2
}

// Cache owns its memo, lock and counters; each run makes its own.
type Cache struct {
	mu    sync.Mutex
	memo  sync.Map
	calls atomic.Uint64
	hits  int
}

// Get counts on the receiver and in locals, never on package state.
func (c *Cache) Get(k string) int {
	c.calls.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
	limit := limits[k] + len(order)
	limit++
	if v, ok := c.memo.Load(k); ok && ready {
		return v.(int) + limit
	}
	return limit
}
