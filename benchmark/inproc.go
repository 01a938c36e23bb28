package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"atf"
	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/oclc"
)

// genWorkers is the generation parallelism of every in-process workload:
// a fixed number in the workload definition, never NumCPU, so a run does
// the same work on any machine.
const genWorkers = 2

// K20m limits, embedded in the XgemmDirect space as constraints.
const (
	k20mMaxWorkGroup = 1024
	k20mLocalMem     = 48 << 10
)

// zeroCost is the zero_cf of "Efficient Construction of Large Search
// Spaces for Auto-Tuning" (SNIPPETS.md): with the cost function free, the
// time per evaluation is framework overhead.
var zeroCost = atf.CostFunc(func(*atf.Config) (atf.Cost, error) { return core.SingleCost(0), nil })

// built is a session's three ingredients, assembled inside the session
// so that building them counts towards time-to-first-evaluation.
type built struct {
	tuner  atf.Tuner
	cost   atf.CostFunction
	params []*atf.Param
}

// tracedTechnique times the technique's two per-evaluation calls.
type tracedTechnique struct {
	inner           atf.Technique
	propose, report *span
}

func (t *tracedTechnique) Initialize(sp *atf.Space, seed int64) {
	s := t.propose.enter()
	t.inner.Initialize(sp, seed)
	t.propose.exit(s)
}
func (t *tracedTechnique) Finalize() { t.inner.Finalize() }
func (t *tracedTechnique) GetNextConfig() *atf.Config {
	s := t.propose.enter()
	cfg := t.inner.GetNextConfig()
	t.propose.exit(s)
	return cfg
}
func (t *tracedTechnique) ReportCost(c atf.Cost) {
	s := t.report.enter()
	t.inner.ReportCost(c)
	t.report.exit(s)
}

// tracedCost times cost-function calls in the span that span() names at
// the time of the call (nil while no traced pass is running); clones
// share it.
type tracedCost struct {
	inner atf.CostFunction
	span  func() *span
}

func (c *tracedCost) Cost(cfg *atf.Config) (atf.Cost, error) {
	sp := c.span()
	s := sp.enter()
	cost, err := c.inner.Cost(cfg)
	sp.exit(s)
	return cost, err
}

func (c *tracedCost) Clone() (atf.CostFunction, error) {
	cl, ok := c.inner.(atf.CloneableCostFunction)
	if !ok {
		return c, nil
	}
	inner, err := cl.Clone()
	if err != nil {
		return nil, err
	}
	return &tracedCost{inner: inner, span: c.span}, nil
}

// tuned is one in-process session's outcome.
type tuned struct {
	res    *atf.Result
	space  *atf.Space
	sess   sessionResult
	rate   time.Duration // session end − first evaluation
	cached uint64        // evaluations served by the tuner's cost cache
}

// tuneOnce runs one in-process tuning session: build, generate, explore —
// exactly Tuner.Tune, split at its two calls so the traced run can put a
// span around each. costSpan names the cost function's span; onEval sees
// every committed evaluation.
func tuneOnce(tr *tracer, session, costSpan string, build func() (built, error), onEval func(atf.Evaluation)) (*tuned, error) {
	root := tr.span(session, rootSpan, "")
	start := time.Now()
	r0 := root.enter()

	sb := tr.span(session, "atf.build", rootSpan)
	s := sb.enter()
	b, err := build()
	sb.exit(s)
	if err != nil {
		return nil, err
	}

	out := &tuned{}
	var first time.Time
	b.tuner.OnEvaluation = func(ev atf.Evaluation) {
		if ev.Index == 0 {
			first = time.Now()
		}
		if ev.Cached {
			out.cached++
		}
		if onEval != nil {
			onEval(ev)
		}
	}
	if tr != nil {
		// The sequential exploration loop calls all three from one
		// goroutine.
		single := func(name string) *span {
			sp := tr.span(session, name, "core.explore")
			sp.single = true
			return sp
		}
		b.tuner.Technique = &tracedTechnique{inner: b.tuner.Technique, propose: single("search.propose"), report: single("search.report")}
		costSp := single(costSpan)
		b.cost = &tracedCost{inner: b.cost, span: func() *span { return costSp }}
	}

	sg := tr.span(session, "core.generate", rootSpan)
	s = sg.enter()
	out.space, err = b.tuner.GenerateSpace(atf.G(b.params...))
	sg.exit(s)
	if err != nil {
		return nil, err
	}

	se := tr.span(session, "core.explore", rootSpan)
	s = se.enter()
	out.res, err = b.tuner.Explore(out.space, b.cost)
	se.exit(s)
	end := time.Now()
	root.exit(r0)
	if err != nil {
		return nil, err
	}
	if out.res.Evaluations == 0 {
		return nil, fmt.Errorf("session committed no evaluation")
	}
	out.sess = sessionResult{ttfe: first.Sub(start), wall: end.Sub(start)}
	out.rate = end.Sub(first)
	return out, nil
}

func (t *tuned) result() passResult {
	return passResult{sessions: []sessionResult{t.sess}, evals: t.res.Evaluations, rate: t.rate, ops: 1}
}

// digest folds the committed (configuration, cost) sequence into one
// number: two runs with the same seed must produce the same digest.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(ev atf.Evaluation) {
	var buf [8]byte
	for i := 0; i < ev.Config.Len(); i++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.Config.At(i).Int()))
		d.h.Write(buf[:])
	}
	for _, c := range ev.Cost {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c))
		d.h.Write(buf[:])
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// inProcessLayers reports what the technique and cost wrappers of a
// traced in-process pass measured.
func inProcessLayers(m metrics, traced passResult, sum traceSummary) {
	evals := float64(traced.evals)
	if evals == 0 {
		return
	}
	perEval := func(span string) float64 { return sum.selfMs(span) * 1e6 / evals }
	m.set(perLayer, "search.propose_ns_per_eval", perEval("search.propose"))
	m.set(perLayer, "search.report_ns_per_eval", perEval("search.report"))
	m.set(perLayer, "core.explore_self_ns_per_eval", perEval("core.explore"))
}

// ---- zero-sweep --------------------------------------------------------

// zeroFirstOnly is the number of sessions cut off at their first
// evaluation that follow the sweep in a zero-sweep pass.
const zeroFirstOnly = 4

type zeroSweep struct {
	space         clblast.SpaceOptions
	wantSize      uint64
	validateEvery uint64
	seed          int64
}

func setupZeroSweep(o *options) (instance, error) {
	z := &zeroSweep{
		space: clblast.SpaceOptions{RangeCap: 64, MaxWorkGroupSize: k20mMaxWorkGroup, LocalMemBytes: k20mLocalMem},
		// 2,876,260 is XgemmDirect's valid-configuration count at range
		// cap 64 under the K20m limits (results/sizes.md).
		wantSize:      2876260,
		validateEvery: 100000,
		seed:          o.seed,
	}
	if o.scale < 1 {
		z.space.RangeCap, z.wantSize, z.validateEvery = 16, 0, 1000
	}
	return z, nil
}

func (z *zeroSweep) warmup() (passResult, error) { return z.pass(0, nil) }

// build assembles a sweep session; a non-nil abort cuts it short.
func (z *zeroSweep) build(params *[]*atf.Param, abort atf.AbortCondition) func() (built, error) {
	return func() (built, error) {
		*params = clblast.XgemmDirectParams(z.space)
		return built{
			tuner:  atf.Tuner{Technique: atf.Exhaustive(), Abort: abort, Workers: genWorkers, Seed: z.seed},
			cost:   zeroCost,
			params: *params,
		}, nil
	}
}

func (z *zeroSweep) pass(i int, tr *tracer) (passResult, error) {
	var params []*atf.Param
	invalid := 0
	// The seed moves which configurations are re-validated.
	offset := uint64(z.seed) % z.validateEvery
	t, err := tuneOnce(tr, fmt.Sprintf("pass-%d", i), "cost.zero", z.build(&params, nil), func(ev atf.Evaluation) {
		if ev.Index%z.validateEvery == offset && !clblast.ValidateConfig(ev.Config, params) {
			invalid++
		}
	})
	if err != nil {
		return passResult{}, err
	}
	p := t.result()
	// Generation is a tenth of a second of a two-second session, and six
	// sessions a run leave its median little to stand on: each pass goes on
	// with sessions cut off at their first evaluation, a collection before
	// each as before the pass itself. The traced pass leaves them out, so
	// that its spans are those of whole sessions.
	for k := 0; tr == nil && k < zeroFirstOnly; k++ {
		runtime.GC()
		var params []*atf.Param
		f, err := tuneOnce(nil, "first-only", "cost.zero", z.build(&params, atf.Evaluations(1)), nil)
		if err != nil {
			return passResult{}, err
		}
		f.sess.firstOnly = true
		p.sessions = append(p.sessions, f.sess)
		p.evals += f.res.Evaluations
	}
	switch {
	case t.res.Evaluations != t.space.Size():
		p.failed = append(p.failed, fmt.Sprintf("swept %d of %d configurations", t.res.Evaluations, t.space.Size()))
	case z.wantSize != 0 && t.space.Size() != z.wantSize:
		p.failed = append(p.failed, fmt.Sprintf("space has %d configurations, want %d", t.space.Size(), z.wantSize))
	case invalid > 0:
		p.failed = append(p.failed, fmt.Sprintf("%d swept configurations fail clblast.ValidateConfig", invalid))
	}
	return p, nil
}

func (z *zeroSweep) layers(m metrics, _, traced passResult, sum traceSummary) {
	inProcessLayers(m, traced, sum)
}

func (z *zeroSweep) close() {}

// ---- lazy-random -------------------------------------------------------

type lazyRandom struct {
	space    clblast.SpaceOptions
	budget   uint64
	slab     int64
	wantSize uint64
	seed     int64
	warm     uint64 // digest of the warm-up pass, which pass 0 repeats
}

func setupLazyRandom(o *options) (instance, error) {
	l := &lazyRandom{
		// Range cap 512 with divisor hints: the local-memory constraint
		// caps WGD near 76, so the valid space is the uncapped one
		// (4,285,468 configurations — the same at cap 1024) while the
		// census costs 1.0 s instead of 2.7 s.
		space:    clblast.SpaceOptions{RangeCap: 512, MaxWorkGroupSize: k20mMaxWorkGroup, LocalMemBytes: k20mLocalMem, DivisorHints: true},
		budget:   250000,
		slab:     4 << 20,
		wantSize: 4285468,
		seed:     o.seed,
	}
	if o.scale < 1 {
		l.space.RangeCap, l.budget, l.slab, l.wantSize = 24, 2000, 64<<10, 0
	}
	return l, nil
}

// run is one lazy-random session with the given technique seed.
func (l *lazyRandom) run(i int, seed int64, tr *tracer) (passResult, uint64, error) {
	var params []*atf.Param
	d := newDigest()
	invalid := 0
	t, err := tuneOnce(tr, fmt.Sprintf("pass-%d", i), "cost.zero", func() (built, error) {
		// A fresh space each pass: the census is this workload's
		// time-to-first-evaluation.
		params = clblast.XgemmDirectParams(l.space)
		return built{
			tuner: atf.Tuner{
				Technique: atf.RandomSearch(), Abort: atf.Evaluations(l.budget),
				SpaceMode: atf.SpaceLazy, MaxSpaceBytes: l.slab,
				Workers: genWorkers, Seed: seed,
			},
			cost:   zeroCost,
			params: params,
		}, nil
	}, func(ev atf.Evaluation) {
		d.add(ev)
		if ev.Index%1000 == 0 && !clblast.ValidateConfig(ev.Config, params) {
			invalid++
		}
	})
	if err != nil {
		return passResult{}, 0, err
	}
	p := t.result()
	switch {
	case l.wantSize != 0 && t.space.Size() != l.wantSize:
		p.failed = append(p.failed, fmt.Sprintf("space has %d configurations, want %d", t.space.Size(), l.wantSize))
	case t.res.Evaluations != l.budget:
		p.failed = append(p.failed, fmt.Sprintf("%d evaluations, budget %d", t.res.Evaluations, l.budget))
	case invalid > 0:
		p.failed = append(p.failed, fmt.Sprintf("%d sampled configurations fail clblast.ValidateConfig", invalid))
	}
	return p, d.sum(), nil
}

// passSeed derives pass i's technique seed from the run seed; the
// warm-up and pass 0 share one.
func passSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) + 1 }

func (l *lazyRandom) warmup() (passResult, error) {
	p, sum, err := l.run(0, passSeed(l.seed, 0), nil)
	l.warm = sum
	return p, err
}

func (l *lazyRandom) pass(i int, tr *tracer) (passResult, error) {
	p, sum, err := l.run(i, passSeed(l.seed, i), tr)
	if err == nil && i == 0 && sum != l.warm {
		p.failed = append(p.failed, fmt.Sprintf("same-seed re-run digest %x differs from the warm-up's %x", sum, l.warm))
	}
	return p, err
}

func (l *lazyRandom) layers(m metrics, _, traced passResult, sum traceSummary) {
	inProcessLayers(m, traced, sum)
}

func (l *lazyRandom) close() {}

// ---- gemm-anneal -------------------------------------------------------

// gemmWalks is the number of annealing sessions in one gemm-anneal pass.
const gemmWalks = 4

type gemmAnneal struct {
	evals uint64
	cap   int64
	seed  int64
	warm  [gemmWalks]uint64 // digests of the warm-up pass, which pass 0 repeats

	// From the most recent pass, for the per-layer metrics.
	cached                uint64
	bestCost              float64
	evalsToBest           uint64
	compileHits, compiles uint64
}

func setupGemmAnneal(o *options) (instance, error) {
	g := &gemmAnneal{evals: uint64(o.scaled(36, 8)), cap: 64, seed: o.seed}
	if o.scale < 1 {
		g.cap = 16
	}
	return g, nil
}

// spec is walk w's tuning spec. Every pass runs the same gemmWalks walks:
// an annealing walk stays in one neighbourhood of the space, and compile
// + VM time per configuration differs by ±26 % between neighbourhoods,
// so walks seeded from -seed or from the pass index would make every
// metric of this workload a function of which neighbourhoods it drew, not
// of the code. -seed picks the matrices instead; the walk seeds are part
// of the workload definition.
func (g *gemmAnneal) spec(w int) *atf.Spec {
	return &atf.Spec{
		Name: "gemm-anneal",
		Cost: atf.CostSpec{
			Kind: "gemm", Device: "K20m", RangeCap: g.cap,
			M: 10, K: 64, GemmN: 500, Seed: g.seed,
		},
		Technique: atf.TechniqueSpec{Kind: "annealing"},
		Abort:     atf.AbortSpec{Evaluations: g.evals},
		Seed:      int64(w) + 1,
		Workers:   genWorkers,
	}
}

// run is one pass: gemmWalks sessions, each from a cold compile cache.
func (g *gemmAnneal) run(i int, tr *tracer, verify bool) (passResult, [gemmWalks]uint64, error) {
	p := passResult{ops: 1}
	var sums [gemmWalks]uint64
	g.cached, g.compileHits, g.compiles = 0, 0, 0
	for w := 0; w < gemmWalks; w++ {
		oclc.ResetCompileCache()
		spec := g.spec(w)
		d := newDigest()
		t, err := tuneOnce(tr, fmt.Sprintf("pass-%d-walk-%d", i, w), "clblast.eval", func() (built, error) {
			b, err := spec.Build()
			if err != nil {
				return built{}, err
			}
			return built{tuner: b.Tuner, cost: b.Cost, params: b.Params}, nil
		}, d.add)
		if err != nil {
			return passResult{}, sums, err
		}
		sums[w] = d.sum()
		p.sessions = append(p.sessions, t.sess)
		p.evals += t.res.Evaluations
		p.rate += t.rate
		if t.res.Evaluations != g.evals {
			p.failed = append(p.failed, fmt.Sprintf("walk %d: %d evaluations, budget %d", w, t.res.Evaluations, g.evals))
		}
		if t.res.Best == nil {
			p.failed = append(p.failed, fmt.Sprintf("walk %d found no valid configuration", w))
			continue
		}
		hits, misses := oclc.CompileCacheStats()
		g.cached += t.cached
		g.compileHits += hits
		g.compiles += hits + misses
		if w == 0 {
			g.bestCost = t.res.BestCost.Primary()
			g.evalsToBest = t.res.Improvements[len(t.res.Improvements)-1].Index + 1
		}
		if verify {
			if err := g.verify(spec, t.res.Best); err != nil {
				p.failed = append(p.failed, fmt.Sprintf("walk %d: %v", w, err))
			}
		}
	}
	return p, sums, nil
}

// verify executes the best configuration functionally and compares the
// product with the host reference.
func (g *gemmAnneal) verify(spec *atf.Spec, best *atf.Config) error {
	dev, err := openclDevice(spec.Cost.Device)
	if err != nil {
		return err
	}
	shape := clblast.GemmShape{M: spec.Cost.M, K: spec.Cost.K, N: spec.Cost.GemmN}
	maxErr, err := clblast.NewGemmEvaluator(dev, shape, spec.Cost.Seed).Verify(best)
	if err != nil {
		return fmt.Errorf("verify best: %w", err)
	}
	if maxErr > 1e-3 {
		return fmt.Errorf("best configuration's product is off by %g (limit 1e-3)", maxErr)
	}
	return nil
}

// warmup also verifies each walk's best configuration, outside any timed
// pass.
func (g *gemmAnneal) warmup() (passResult, error) {
	p, sums, err := g.run(0, nil, true)
	g.warm = sums
	return p, err
}

func (g *gemmAnneal) pass(i int, tr *tracer) (passResult, error) {
	p, sums, err := g.run(i, tr, false)
	if err == nil && sums != g.warm {
		p.failed = append(p.failed, fmt.Sprintf("same-seed re-run digests %x differ from the warm-up's %x", sums, g.warm))
	}
	return p, err
}

func (g *gemmAnneal) layers(m metrics, _, traced passResult, sum traceSummary) {
	inProcessLayers(m, traced, sum)
	m.set(perLayer, "core.cost_cache_hit_share", float64(g.cached)/float64(traced.evals))
	if g.compiles > 0 {
		m.set(perLayer, "oclc.compile_cache_hit_share", float64(g.compileHits)/float64(g.compiles))
	}
	// The first walk's search result: counts that repeat exactly.
	m.set(perLayer, "search.best_cost_ns", g.bestCost)
	m.set(perLayer, "search.evals_to_best", float64(g.evalsToBest))
}

func (g *gemmAnneal) close() {}

// runControl executes a spec in process with its history recorded: the
// local control run the daemon's streams are compared against.
func runControl(spec *atf.Spec) ([]atf.Evaluation, error) {
	control := *spec
	control.Record = true
	res, err := control.Run(context.Background())
	if err != nil {
		return nil, err
	}
	return res.History, nil
}
