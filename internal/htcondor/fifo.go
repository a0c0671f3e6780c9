package htcondor

// jobFIFO is one owner's idle queue: a slice with tombstone removal.
// Dropping a job nils its slot in O(1) (the job carries its index)
// instead of shifting the tail, and compaction runs only from push —
// never from remove — so negotiation cursors opened over the queue stay
// valid while the negotiator claims jobs out of it. FIFO order of the
// live entries is exactly the seed []*Job append order.
type jobFIFO struct {
	jobs []*Job
	live int
}

// push appends j, compacting first if tombstones dominate.
func (f *jobFIFO) push(j *Job) {
	if len(f.jobs) >= 2*f.live+32 {
		f.compact()
	}
	j.fifoIdx = len(f.jobs)
	f.jobs = append(f.jobs, j)
	f.live++
}

// remove tombstones j's slot. It reports whether j was present.
func (f *jobFIFO) remove(j *Job) bool {
	i := j.fifoIdx
	if i < 0 || i >= len(f.jobs) || f.jobs[i] != j {
		return false
	}
	f.jobs[i] = nil
	j.fifoIdx = -1
	f.live--
	return true
}

// compact squeezes tombstones out, rewriting the stored indices.
func (f *jobFIFO) compact() {
	w := 0
	for _, j := range f.jobs {
		if j == nil {
			continue
		}
		f.jobs[w] = j
		j.fifoIdx = w
		w++
	}
	for i := w; i < len(f.jobs); i++ {
		f.jobs[i] = nil
	}
	f.jobs = f.jobs[:w]
}

// IdleCursor walks one owner's idle jobs in queue order without copying
// the queue. It is created at the start of a negotiation cycle and is
// valid until the next insert into the underlying queue (inserts may
// compact; removals of already-yielded jobs are fine — that is exactly
// what claiming does). Peek returns the next live job without consuming
// it; Pop consumes the job Peek returned.
type IdleCursor struct {
	f   *jobFIFO
	pos int
	end int // queue length at cursor creation: a cycle's snapshot bound
}

// Peek returns the next live job, or nil when the cursor is exhausted.
// Repeated Peeks without a Pop return the same job.
func (c *IdleCursor) Peek() *Job {
	for c.pos < c.end {
		if j := c.f.jobs[c.pos]; j != nil {
			return j
		}
		c.pos++
	}
	return nil
}

// Pop consumes the job the last Peek returned.
func (c *IdleCursor) Pop() { c.pos++ }
