package sim

// Test-only views of the calendar: drain it, and count its live events.

// Run executes events until the calendar is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// Pending reports the number of live (non-cancelled) events still on
// the calendar. Cancelled-but-unreaped tombstones are excluded, so the
// value tracks real future work rather than heap occupancy.
func (k *Kernel) Pending() int { return len(k.events) - k.cancelled }
