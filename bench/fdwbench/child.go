package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"fdw/internal/obs"
)

// now is the benchmark's one wall-clock read: every span, op and pass
// duration is a difference of two of its results.
func now() time.Time {
	return time.Now() //lint:allow wallclock the benchmark measures host wall time; no reading flows back into the program under test
}

// A child is one repetition of one workload, run in its own process:
// set-up (the workload's inputs plus one reference pass), then whole
// measured passes. Every op's output is checked against the reference
// pass; a failed check or an error fails the op and the run goes on.
type child struct {
	seed uint64
	// reg is the obs registry attached to the program under test in a
	// traced repetition; nil (metrics off) otherwise.
	reg     *obs.Registry
	pass    func()
	cleanup func()

	refs    map[string]uint64 // output key -> FNV-1a digest of the reference output
	passIdx int               // -1 during set-up, which includes the reference pass
	cur     passState
	epoch   time.Time

	stack    []time.Duration // per open span: time covered by its child spans
	passWall time.Duration   // summed measured pass time
	perOp    map[string]float64
	greensMB float64 // size of one Phase B product, for the fq121 workloads
	res      childResult
}

type passState struct {
	ops, failed int
	bad         bool // a pass-level output was wrong: every op of the pass fails
	untimed     time.Duration
	err         error
}

// spanRec is one harness-timed call into a layer of the program.
type spanRec struct {
	Name    string  `json:"name"`
	Pass    int     `json:"pass"` // -1 in set-up
	Top     bool    `json:"top"`  // not nested in another span
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
	SelfMS  float64 `json:"self_ms"`
}

// childResult is what a repetition reports to the parent process.
type childResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	PassRates []float64          `json:"pass_ops_per_s"`
	OpMS      []float64          `json:"op_ms"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	RefDigest string             `json:"ref_digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []spanRec          `json:"spans,omitempty"`
}

// maxErrors bounds the error messages a repetition keeps.
const maxErrors = 5

// openChild builds a workload's inputs. With trace the program under
// test records into an obs registry and the harness records spans.
func openChild(w *workload, seed uint64, trace bool) (*child, error) {
	c := &child{
		seed:    seed,
		refs:    map[string]uint64{},
		passIdx: -1,
		epoch:   now(),
		perOp:   map[string]float64{},
		res:     childResult{Workload: w.name, Traced: trace},
	}
	if trace {
		c.reg = obs.NewRegistry(nil)
	}
	pass, cleanup, err := w.open(c)
	c.pass, c.cleanup = pass, cleanup
	if err != nil {
		c.close()
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return c, nil
}

// close releases what the workload's set-up made (temp directories).
func (c *child) close() {
	if c.cleanup != nil {
		c.cleanup()
		c.cleanup = nil
	}
}

// runChild runs one whole repetition: set-up, reference pass, and
// measured passes for budget (at least one pass).
func runChild(w *workload, seed uint64, budget time.Duration, trace bool) (*childResult, error) {
	c, err := openChild(w, seed, trace)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.reference(); err != nil {
		return nil, err
	}
	return c.measure(budget)
}

// reference runs the pass whose outputs every measured op is checked
// against; it ends set-up.
func (c *child) reference() error {
	c.runPass()
	if c.cur.failed > 0 || c.cur.bad {
		return fmt.Errorf("%s: reference pass: %w", c.res.Workload, c.cur.err)
	}
	c.res.SetupS = now().Sub(c.epoch).Seconds()
	return nil
}

// measure runs whole passes until budget has elapsed, at least one.
func (c *child) measure(budget time.Duration) (*childResult, error) {
	tr, err := c.startTrace()
	if err != nil {
		return nil, err
	}
	start := now()
	for c.passIdx = 0; c.passIdx == 0 || now().Sub(start) < budget; c.passIdx++ {
		c.runPass()
	}
	if tr != nil {
		if c.res.Layers, err = tr.finish(c); err != nil {
			return nil, err
		}
	}
	if c.res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	c.res.RefDigest = c.refDigest()
	return &c.res, nil
}

// runPass runs one pass; its time excludes the untimed output checks.
func (c *child) runPass() {
	c.cur = passState{}
	t0 := now()
	c.pass()
	wall := now().Sub(t0) - c.cur.untimed
	if c.passIdx < 0 {
		return
	}
	failed := c.cur.failed
	if c.cur.bad {
		failed = c.cur.ops
	}
	c.res.Attempted += c.cur.ops
	c.res.Failed += failed
	c.passWall += wall
	c.res.PassRates = append(c.res.PassRates, float64(c.cur.ops)/wall.Seconds())
}

// op times one operation, then (untimed) checks its output against the
// reference. An error or a mismatch fails the op.
func (c *child) op(key string, run func() ([]byte, error)) {
	t0 := now()
	out, err := run()
	d := now().Sub(t0)
	if c.passIdx >= 0 {
		c.res.OpMS = append(c.res.OpMS, ms(d))
	}
	c.cur.ops++
	if err == nil {
		err = c.check(key, out)
	}
	if err != nil {
		c.cur.failed++
		c.note(err)
	}
}

// checkPass checks an output the whole pass contributes to, such as a
// campaign report; if it is wrong, every op of the pass fails.
func (c *child) checkPass(key string, out []byte, err error) {
	if err == nil {
		err = c.check(key, out)
	}
	if err != nil {
		c.cur.bad = true
		c.note(err)
	}
}

// check compares out with the reference for key. In set-up the first
// output for a key becomes its reference.
func (c *child) check(key string, out []byte) (err error) {
	c.untimed(func() {
		h := fnv.New64a()
		h.Write(out)
		got := h.Sum64()
		ref, ok := c.refs[key]
		switch {
		case !ok && c.passIdx < 0:
			c.refs[key] = got
		case !ok:
			err = fmt.Errorf("%s: no reference output", key)
		case got != ref:
			err = fmt.Errorf("%s: output digest %016x, reference %016x", key, got, ref)
		}
	})
	return err
}

func (c *child) note(err error) {
	if c.cur.err == nil {
		c.cur.err = err
	}
	if c.passIdx >= 0 && len(c.res.Errors) < maxErrors {
		c.res.Errors = append(c.res.Errors, fmt.Sprintf("pass %d: %v", c.passIdx, err))
	}
}

// untimed runs harness work (checks, temp-dir housekeeping) that
// neither op latency nor pass time may include.
func (c *child) untimed(f func()) {
	t0 := now()
	f()
	c.cur.untimed += now().Sub(t0)
}

// span times a call into one layer of the program when tracing.
func (c *child) span(name string, f func() error) error {
	if c.reg == nil {
		return f()
	}
	c.stack = append(c.stack, 0)
	t0 := now()
	err := f()
	d := now().Sub(t0)
	inner := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	if n := len(c.stack); n > 0 {
		c.stack[n-1] += d
	}
	c.res.Spans = append(c.res.Spans, spanRec{
		Name: name, Pass: c.passIdx, Top: len(c.stack) == 0,
		StartMS: ms(t0.Sub(c.epoch)), MS: ms(d), SelfMS: ms(d - inner),
	})
	return err
}

// add accumulates a per-op layer count over the measured passes.
func (c *child) add(metric string, v float64) {
	if c.passIdx >= 0 {
		c.perOp[metric] += v
	}
}

// tempDir makes a directory under os.TempDir, untimed.
func (c *child) tempDir(pattern string) (dir string, err error) {
	c.untimed(func() { dir, err = os.MkdirTemp("", pattern) })
	return dir, err
}

// removeAll deletes a directory tempDir made, untimed.
func (c *child) removeAll(dir string) {
	if dir == "" {
		return
	}
	c.untimed(func() {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintln(os.Stderr, "fdwbench:", err)
		}
	})
}

// refDigest condenses every reference output, so repetitions (and
// workloads computing the same outputs) can be compared.
func (c *child) refDigest() string {
	keys := make([]string, 0, len(c.refs))
	for k := range c.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%016x\n", k, c.refs[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
