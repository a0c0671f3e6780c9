package globalstate_bad

import "sync"

// Registry is a cache whose lock says it is changed after construction.
type Registry struct {
	mu sync.Mutex
	m  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: map[string]int{}} }

// DefaultRegistry is a process-wide cache held behind a pointer.
var DefaultRegistry = NewRegistry()

var guard sync.Mutex

var wrapped struct{ inner struct{ mu sync.RWMutex } }

var once sync.Once

// Tally is a lock-free cache filled through its methods.
type Tally struct {
	n    int
	seen map[string]bool
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{seen: map[string]bool{}} }

// Len only reads.
func (t *Tally) Len() int { return t.n }

// Note records k on the receiver.
func (t *Tally) Note(k string) {
	t.seen[k] = true
}

// DefaultTally is a process-wide cache changed only through Note.
var DefaultTally = NewTally()

var tallies [2]Tally

type count int

func (c *count) inc() { *c++ }

var total count
