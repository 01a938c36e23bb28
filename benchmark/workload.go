package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// Noise rules (README "Noise rules"): every timed quantity is the median
// over at least minPasses timed passes after one untimed warm-up pass,
// with a forced collection between passes. The pass count is fixed by the
// workload definition and -seconds, so the work a given (-seed, -seconds)
// pair runs does not depend on how fast the machine happens to be.
const (
	minPasses = 5
	// minPassSeconds is the shortest timed pass the noise rules allow, and
	// a timed window lasts between 1 and maxWindowFactor times -seconds
	// (10–25 s at the default).
	minPassSeconds  = 1.5
	maxWindowFactor = 2.5
	// maxUnattributedPct is ROADMAP's closure rule: a traced run whose
	// spans leave more than this share of session wall-clock uncovered
	// fails — unexplained time is a bug in the instrumentation.
	maxUnattributedPct = 5.0
)

// options are one run's inputs.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// scale shrinks every workload's size; 1 is the benchmark, the
	// selftest runs at 1/100.
	scale  float64
	outDir string // <repo>/benchmark/out: result files, traces, probe files
	// journalRoot is where the daemon workloads journal (journalRoot()).
	journalRoot string
	log         io.Writer
}

func (o *options) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}

// scaled shrinks a size by the run's scale, never below floor.
func (o *options) scaled(n, floor int) int {
	v := int(math.Round(float64(n) * o.scale))
	if v < floor {
		v = floor
	}
	return v
}

// sessionResult is one tuning session as its submitter saw it.
type sessionResult struct {
	ttfe time.Duration // submit to first committed evaluation
	wall time.Duration // submit to result
	cold bool          // daemon workloads: a never-seen spec
	// firstOnly marks a session cut off at its first evaluation: a sample
	// of ttfe, not of session time.
	firstOnly bool
}

// passResult is what one pass measured. An op is one pass in process and
// one session on the daemon.
type passResult struct {
	sessions []sessionResult
	evals    uint64
	// rate is the time evals_per_s divides by: session end minus first
	// evaluation in process, the pass's wall-clock on the daemon.
	rate   time.Duration
	ops    int
	failed []string
	// after holds the checks that cost processor time of their own (the
	// in-process control runs): the caller runs them through failures()
	// once it has read its clocks.
	after []func() error
}

// failures runs the checks the pass left for after the clock stopped and
// returns every failed check of the pass.
func (p passResult) failures() []string {
	failed := p.failed
	for _, check := range p.after {
		if err := check(); err != nil {
			failed = append(failed, err.Error())
		}
	}
	return failed
}

// instance is a workload that has been set up.
type instance interface {
	// warmup runs the untimed warm-up pass that ends set-up.
	warmup() (passResult, error)
	// pass runs timed pass i; a non-nil tracer makes it the traced pass.
	pass(i int, tr *tracer) (passResult, error)
	// layers adds the workload-derived per-layer metrics of a traced
	// pass to m.
	layers(m metrics, untraced, traced passResult, sum traceSummary)
	close()
}

// workloadDef is one workload of the benchmark.
type workloadDef struct {
	name string
	why  string
	// passes is the number of timed passes at -seconds 10; it scales with
	// -seconds and never falls below minPasses.
	passes int
	// setups is how often a run sets the workload up (construction plus
	// warm-up pass): setup_s is the median, and the last instance stays up
	// for the timed passes. Cheap set-ups are repeated more often.
	setups int
	setup  func(o *options) (instance, error)
}

func (w workloadDef) passCount(o *options) int {
	n := int(math.Ceil(float64(w.passes*o.seconds) / 10))
	if n < minPasses {
		n = minPasses
	}
	return n
}

// row is one workload's result.
type row struct {
	Workload string   `json:"workload"`
	Ops      int      `json:"ops"`
	Failed   int      `json:"failed"`
	Correct  bool     `json:"correct"`
	Failures []string `json:"failures,omitempty"`
	// WindowS is the timed window (the passes' wall-clock, summed) and
	// MinPassS its shortest pass: what the noise rules are checked on.
	WindowS  float64 `json:"window_s,omitempty"`
	MinPassS float64 `json:"min_pass_s,omitempty"`
	Passes   int     `json:"passes,omitempty"`
	// Notes names the noise rules the run's timing broke: short_pass,
	// short_window (the workload is sized too small for this machine) or
	// slow_host (the window outlasted maxWindowFactor × -seconds).
	Notes    []string      `json:"notes,omitempty"`
	EndToEnd metrics       `json:"end_to_end,omitempty"`
	PerLayer metrics       `json:"per_layer,omitempty"`
	Trace    *traceSummary `json:"trace,omitempty"`
}

func (r *row) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb counts a pass's ops and failed checks; it runs the checks the
// pass left for after the clock stopped.
func (r *row) absorb(p passResult) {
	r.Ops += p.ops
	for _, f := range p.failures() {
		r.fail("%s", f)
	}
}

func (r *row) absorbWarmup(p passResult) {
	for _, f := range p.failures() {
		r.fail("warm-up: %s", f)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sessionMs returns every session's time to first evaluation and every
// whole session's wall-clock in milliseconds.
func sessionMs(ss []sessionResult) (ttfe, wall []float64) {
	for _, s := range ss {
		ttfe = append(ttfe, ms(s.ttfe))
		if !s.firstOnly {
			wall = append(wall, ms(s.wall))
		}
	}
	return ttfe, wall
}

// runWorkload runs one workload in this process: the untraced run gives
// the end-to-end metrics, the traced run the per-layer ones.
func runWorkload(w workloadDef, o *options) *row {
	r := &row{Workload: w.name}
	var err error
	if o.trace {
		err = runTraced(w, o, r)
	} else {
		err = runTimed(w, o, r)
	}
	if err != nil {
		r.fail("%v", err)
	}
	r.Correct = r.Failed == 0
	return r
}

// timedPass is one timed pass and the processor time it took.
type timedPass struct {
	passResult
	cpu time.Duration // user + system time of the process over the pass
}

func runTimed(w workloadDef, o *options, r *row) error {
	var inst instance
	var setups []float64 // seconds
	for rep := 0; rep < w.setups; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart // the first set-up pays process start too
		}
		var err error
		if inst, err = w.setup(o); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		warm, err := inst.warmup()
		if err != nil {
			inst.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.absorbWarmup(warm)
		if rep < w.setups-1 {
			inst.close()
			runtime.GC()
		}
	}
	defer inst.close()

	var passes []timedPass
	for i := 0; i < w.passCount(o); i++ {
		runtime.GC()
		cpu0, t0 := cpuTime(), time.Now()
		p, err := inst.pass(i, nil)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		r.absorb(p)
		if p.evals == 0 || len(p.sessions) == 0 {
			return fmt.Errorf("pass %d committed no evaluation", i)
		}
		passes = append(passes, timedPass{passResult: p, cpu: cpu})
		r.WindowS += wall.Seconds()
		if r.MinPassS == 0 || wall.Seconds() < r.MinPassS {
			r.MinPassS = wall.Seconds()
		}
		o.logf("%s pass %d: %.3f s, %d evaluations, %d sessions", w.name, i, wall.Seconds(), p.evals, len(p.sessions))
	}
	r.Passes = len(passes)
	if o.scale >= 1 {
		// A broken rule marks the row and fails nothing: too short means the
		// workload is sized too small for this machine — or that a change
		// sped it up, which must not fail the change — and too long that the
		// host is in a slow phase.
		if r.MinPassS < minPassSeconds {
			r.Notes = append(r.Notes, "short_pass")
		}
		if r.WindowS < float64(o.seconds) {
			r.Notes = append(r.Notes, "short_window")
		}
		if r.WindowS > maxWindowFactor*float64(o.seconds) {
			r.Notes = append(r.Notes, "slow_host")
		}
	}
	r.EndToEnd = endToEndOf(setups, passes)
	return nil
}

// endToEndOf folds a run's set-ups and timed passes into the six
// end-to-end metrics. A timing is the median over passes; ttfe and session
// time pool every session of the window (one per pass in process, hundreds
// on the daemon) and keep the per-pass medians as the raw values.
func endToEndOf(setups []float64, passes []timedPass) metrics {
	var rates, cpus, ttfeMed, wallMed, ttfeAll, wallAll []float64
	for _, p := range passes {
		ttfe, sess := sessionMs(p.sessions)
		ttfeAll, wallAll = append(ttfeAll, ttfe...), append(wallAll, sess...)
		ttfeMed, wallMed = append(ttfeMed, median(ttfe)), append(wallMed, median(sess))
		rates = append(rates, float64(p.evals)/p.rate.Seconds())
		cpus = append(cpus, float64(p.cpu.Microseconds())/float64(p.evals))
	}
	e := metrics{}
	e.setMedian(endToEnd, "setup_s", setups)
	e.setMedian(endToEnd, "evals_per_s", rates)
	e.setMedian(endToEnd, "cpu_us_per_eval", cpus)
	e.setMedian(endToEnd, "ttfe_p50_ms", ttfeMed)
	e.setMedian(endToEnd, "session_p50_ms", wallMed)
	e.pool("ttfe_p50_ms", median(ttfeAll))
	e.pool("session_p50_ms", median(wallAll))
	e.set(endToEnd, "peak_rss_mb", peakRSSMB())
	return e
}

func runTraced(w workloadDef, o *options, r *row) error {
	inst, err := w.setup(o)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	warm, err := inst.warmup()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.absorbWarmup(warm)

	// End-to-end numbers always come from untraced passes; the traced
	// pass repeats one with the recorder on. It runs between two untraced
	// passes and is compared with their mean, so that a daemon that is
	// still warming up (or slowing down) does not read as overhead.
	m := metrics{}
	runtime.GC()
	rw := beginRuntimeWindow()
	untraced, err := inst.pass(0, nil)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	rw.end(m, untraced.evals)
	r.absorb(untraced)

	tr := newTracer()
	runtime.GC()
	traced, err := inst.pass(0, tr)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.absorb(traced)

	runtime.GC()
	after, err := inst.pass(1, nil)
	if err != nil {
		return fmt.Errorf("second untraced pass: %w", err)
	}
	r.absorb(after)

	sum := tr.summarize()
	r.Trace = &sum
	sum.print(o.log, w.name)
	if err := tr.dump(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return err
	}

	p50 := func(p passResult) float64 {
		_, wall := sessionMs(p.sessions)
		return median(wall)
	}
	o.logf("%s session p50: untraced %.3f ms, traced %.3f ms, untraced %.3f ms", w.name, p50(untraced), p50(traced), p50(after))
	if base := (p50(untraced) + p50(after)) / 2; base > 0 {
		m.set(perLayer, "trace.overhead_pct", 100*(p50(traced)-base)/base)
	}
	m.set(perLayer, "trace.unattributed_pct", sum.UnattributedPct)
	// At the selftest's scale a session lasts microseconds and the
	// recorder's own bookkeeping is a visible share of it.
	if sum.UnattributedPct > maxUnattributedPct && o.scale >= 1 {
		r.fail("trace leaves %.2f%% of session wall-clock unattributed (limit %.0f%%)", sum.UnattributedPct, maxUnattributedPct)
	}
	inst.layers(m, untraced, traced, sum)
	if err := runProbes(o, m); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	m.fillZero(perLayer)
	r.PerLayer = m
	return nil
}
