// Package globalstate_bad keeps run state at package level.
package globalstate_bad

import (
	"sync"
	"sync/atomic"

	"fdw/internal/core/atomicfile"
)

// memo is a process-wide cache.
var memo sync.Map

var shared = &sync.Map{}

// calls is a process-wide counter.
var calls atomic.Uint64

var last atomic.Pointer[string]

var (
	hits   int
	table  = map[string]int{}
	config struct{ Limit int }
	cursor *int
	seen   []string
)

// Lookup bumps process-wide tallies on every call.
func Lookup(k string) int {
	calls.Add(1)
	hits++
	table[k] = len(k)
	config.Limit += 2
	*cursor = 3
	seen = append(seen, k)
	for k = range table {
		hits--
	}
	return table[k]
}

// Reset reassigns package state and another package's var.
func Reset() {
	hits, config.Limit = 0, 0
	for hits = range 3 {
	}
	atomicfile.TestHookBeforeRename = nil
}

func init() {
	atomicfile.TestHookBeforeRename = nil // init excuses only its own package's vars
}
