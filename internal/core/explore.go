package core

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"atf/internal/obs"
)

// Technique is the paper's generic search-technique interface (Section IV):
//
//	class search_technique {
//	    void          initialize(search_space sp);
//	    void          finalize();
//	    configuration get_next_config();
//	    void          report_cost(size_t cost);
//	}
//
// Exploration repeatedly takes a configuration via GetNextConfig, evaluates
// it with the cost function, and reports the cost back via ReportCost until
// the abort condition fires. New techniques are added by implementing this
// interface.
type Technique interface {
	// Initialize is called once before exploration with the generated
	// search space and a seed for deterministic randomness.
	Initialize(sp *Space, seed int64)
	// Finalize is called once after exploration.
	Finalize()
	// GetNextConfig returns the next configuration to evaluate.
	GetNextConfig() *Config
	// ReportCost reports the cost of the most recently returned
	// configuration back to the technique.
	ReportCost(cost Cost)
}

// Evaluation records one tested configuration.
type Evaluation struct {
	Index  uint64 // evaluation sequence number (0-based)
	Config *Config
	Cost   Cost
	Err    error
	At     time.Duration // elapsed since exploration start
	// Cached marks evaluations served from the cost cache: the same
	// configuration was already evaluated earlier in this run (only with
	// ExploreOptions.CacheCosts). Cached evaluations carry the original
	// cost and error of the first miss.
	Cached bool
}

// Result is the outcome of one tuning run.
type Result struct {
	Best        *Config
	BestCost    Cost
	Evaluations uint64
	Valid       uint64
	Elapsed     time.Duration
	// History holds every evaluation in order when ExploreOptions.Record
	// is set; otherwise only improvements are retained.
	History []Evaluation
	// Improvements lists the evaluations at which the best cost dropped.
	Improvements []Evaluation
}

// ExploreOptions tunes the exploration loop.
type ExploreOptions struct {
	// Seed makes the run deterministic; 0 selects a fixed default seed
	// (determinism by default keeps experiments reproducible).
	Seed int64
	// Record retains the full evaluation history in the result.
	Record bool
	// CacheCosts memoizes cost evaluations by configuration, so search
	// techniques revisiting configurations do not pay the cost function
	// twice. Cached hits still count as evaluations, as in ATF.
	CacheCosts bool
	// Order overrides the lexicographic cost order.
	Order CostOrder
	// Now substitutes the wall clock (tests inject virtual time).
	Now func() time.Time
	// OnEvaluation, when set, observes every evaluation.
	OnEvaluation func(ev Evaluation)
	// Context, when set, cancels exploration early: cancellation acts like
	// an abort condition firing between evaluations, so the partial result
	// accumulated so far is still returned (with a nil error). Long-lived
	// callers — the atfd session manager shutting down — check their own
	// context to distinguish cancellation from completion.
	Context context.Context
	// Workers is the number of concurrent cost evaluators: 0 and 1 evaluate
	// inline on the caller's goroutine, n > 1 runs a PoolEvaluator of n
	// workers, and a negative value selects runtime.NumCPU(). With a custom
	// Evaluator, Workers only sets the default BatchSize — the evaluator
	// owns its own concurrency.
	Workers int
	// BatchSize is the number of configurations requested from the
	// technique per round; 0 means Workers (at least 1). Larger batches
	// amortize synchronization, smaller ones shorten the speculation window
	// of adapted stateful techniques (see Batcher).
	BatchSize int
	// Evaluator substitutes the evaluate step: batches are handed to this
	// evaluator instead of the cost function — the seam the distributed
	// fleet coordinator plugs into. The merge discipline is unchanged, so
	// results stay bit-identical to a local run for any evaluator that
	// returns correct outcomes. The caller owns the evaluator's lifecycle.
	Evaluator BatchEvaluator
	// OnBatch, when set, observes every batch before it is evaluated — the
	// hook the atfd journal uses to write batch-boundary records so a
	// coordinator crash mid-batch replays cleanly.
	OnBatch func(mark BatchMark)
	// Pipeline overlaps dispatch with merging: batch k+1 is drawn from the
	// technique and handed to the evaluator while batch k's outcomes are
	// still being merged and reported, so a remote fleet's workers never
	// idle during the coordinator's commit pass. Pipelining only engages
	// when batches go to an evaluator (Workers > 1 or a custom Evaluator)
	// and the technique declares itself CostOblivious (exhaustive, seeded
	// random — directly or through the Batcher adapter): its proposal walk
	// ignores reported costs, so the early draw leaves results
	// bit-identical to the unpipelined run. When an abort condition fires
	// mid-merge the speculative batch is drained and discarded — evaluated
	// but never committed, recorded, or reported.
	Pipeline bool
}

// canceled reports whether the options' context (if any) is done.
func (o *ExploreOptions) canceled() bool {
	return o.Context != nil && o.Context.Err() != nil
}

// BatchMark identifies one dispatched batch: its 0-based index, the
// evaluation index of its first configuration, and its size. Under
// pipelined dispatch StartEval is the predicted first index — exact
// unless an abort condition cut the preceding batch short, in which case
// the speculative batch is discarded anyway.
type BatchMark struct {
	Index     uint64
	StartEval uint64
	Size      int
}

// pendingBatch is a speculative batch at the evaluator: done closes when
// its outcomes (or error) are in.
type pendingBatch struct {
	index    uint64
	batch    []*Config
	outcomes []Outcome
	err      error
	done     chan struct{}
}

// evaluate hands the batch to ev and closes done once the outcomes are in.
func (pb *pendingBatch) evaluate(ctx context.Context, ev BatchEvaluator) {
	defer close(pb.done)
	pb.outcomes, pb.err = ev.EvaluateBatch(ctx, pb.index, pb.batch)
}

// Explore runs the paper's exploration loop (Section II Step 3): it asks
// the technique for configurations, scores them with the cost function, and
// stops when the abort condition fires. A nil abort defaults to
// evaluations(S) with S the search-space size, exactly as in ATF.
//
// The loop draws batches from the technique (AsBatch adapts a plain
// Technique) and merges each batch's outcomes strictly in batch order —
// the same discipline GenerateGroup uses for its root chunks. With
// Workers <= 1 and no Evaluator the batches hold one configuration, which
// the loop evaluates inline on the caller's goroutine after its abort
// check: the sequential get_next_config → cost → report_cost loop, step
// for step. Otherwise each batch goes to the evaluator (opts.Evaluator, or
// a PoolEvaluator of Workers workers), and Result.Best, Improvements,
// History and the evaluation indices are identical regardless of worker
// count for any technique whose proposals do not depend on intermediate
// costs (exhaustive, seeded random, and every BatchTechnique that treats a
// batch as one step). Stateful sequential techniques adapted via Batcher
// receive speculative batches; their walks remain valid but differ from
// their one-at-a-time runs.
//
// The abort condition is checked before every draw and before every
// commit: when it fires mid-batch, the remaining already-evaluated
// configurations of that batch are discarded, never counted, recorded or
// reported, so abort boundaries match the sequential run. A canceled
// ExploreOptions.Context stops exploration the same way, so a daemon
// shutdown aborts in-flight work at the next commit boundary instead of
// draining the whole search.
func Explore(sp *Space, tech Technique, cf CostFunction, abort AbortCondition, opts ExploreOptions) (*Result, error) {
	if sp == nil || sp.Size() == 0 {
		return nil, fmt.Errorf("core: cannot explore an empty search space")
	}
	if tech == nil {
		return nil, fmt.Errorf("core: no search technique")
	}
	if cf == nil {
		return nil, fmt.Errorf("core: no cost function")
	}
	if abort == nil {
		abort = Evaluations(sp.Size())
	}
	order := opts.Order
	if order == nil {
		order = LexLess
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x5eed_a7f1
	}
	workers := opts.Workers
	switch {
	case workers < 0:
		workers = runtime.NumCPU()
	case workers == 0:
		workers = 1
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = workers
	}

	// The evaluate step: the caller's evaluator (the distributed fleet
	// coordinator), an in-process pool when there are workers to fill, or
	// none — the cost function then runs inline on this goroutine.
	evaluator := opts.Evaluator
	if evaluator == nil && workers > 1 {
		pool, err := NewPoolEvaluator(cf, workers, opts.CacheCosts)
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		evaluator = pool
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	bt := AsBatch(tech)
	bt.Initialize(sp, seed)
	defer bt.Finalize()

	// seen holds every committed configuration's outcome. Inline it is the
	// cost cache; behind an evaluator it sets the Cached flag by commit
	// order, never by which worker won a cache race. The cache memoizes the
	// full (cost, error) outcome: a cached failing configuration reports
	// the same Evaluation.Err as the first miss.
	var seen map[string]Outcome
	if opts.CacheCosts {
		seen = make(map[string]Outcome)
	}

	mWorkers.Set(int64(workers))
	// The span's attributes allocate even when tracing is off.
	var span *obs.Span
	if obs.TracingEnabled() {
		span = obs.StartSpan("explore", slog.Int("workers", workers))
	}

	// Pipelining only engages when an evaluator can run ahead and the
	// technique's proposals ignore costs; anything else keeps the strict
	// draw→evaluate→report cadence.
	pipeline := evaluator != nil && opts.Pipeline && costOblivious(bt)

	st := &State{Start: now(), SpaceSize: sp.Size()}
	res := &Result{}
	stop := func() bool {
		st.Now = now()
		return opts.canceled() || abort.Abort(st)
	}

	var batchIndex, nextStart uint64
	// draw pulls the next batch from the technique, nil once it is
	// exhausted. The mark's StartEval is the running total of drawn
	// configurations — identical to the committed count whenever the
	// unpipelined loop draws, and the prediction for a speculative batch
	// whose predecessor has not finished merging yet.
	draw := func() (uint64, []*Config) {
		batch := bt.GetNextBatch(batchSize)
		if len(batch) == 0 {
			return 0, nil
		}
		index := batchIndex
		batchIndex++
		if evaluator != nil {
			mBatches.Inc()
		}
		if opts.OnBatch != nil {
			opts.OnBatch(BatchMark{Index: index, StartEval: nextStart, Size: len(batch)})
		}
		nextStart += uint64(len(batch))
		return index, batch
	}

	// spec is the speculative batch a pipelined run hands to the evaluator
	// while the previous batch merges. Every exit path must drain it before
	// the deferred pool.Close tears the workers down, which is what the
	// deferred receive guarantees (registered after the Close defer, so it
	// runs first).
	var spec *pendingBatch
	defer func() {
		if spec != nil {
			<-spec.done
		}
	}()

	evals := make([]Evaluation, 0, batchSize) // reused: ReportCosts must not retain it
	for {
		var index uint64
		var batch []*Config
		var outcomes []Outcome
		var err error
		if spec != nil {
			<-spec.done
			index, batch, outcomes, err = spec.index, spec.batch, spec.outcomes, spec.err
			spec = nil
		} else {
			if stop() {
				break
			}
			if index, batch = draw(); batch == nil {
				break // technique exhausted (e.g. exhaustive search done)
			}
			if evaluator != nil {
				outcomes, err = evaluator.EvaluateBatch(ctx, index, batch)
			}
		}
		if evaluator != nil {
			if err != nil {
				if opts.canceled() {
					break // cancellation mid-batch: return the partial result
				}
				return nil, fmt.Errorf("core: evaluating batch %d: %w", index, err)
			}
			if len(outcomes) != len(batch) {
				return nil, fmt.Errorf("core: evaluator returned %d outcomes for a batch of %d", len(outcomes), len(batch))
			}
			if pipeline && !opts.canceled() {
				if next, nb := draw(); nb != nil {
					spec = &pendingBatch{index: next, batch: nb, done: make(chan struct{})}
					go spec.evaluate(ctx, evaluator)
				}
			}
		}

		// Merge strictly in batch order.
		var mergeStart time.Time
		if evaluator != nil {
			mergeStart = time.Now()
		}
		aborted := false
		evals = evals[:0]
		for i, cfg := range batch {
			// An inline batch's first configuration was just checked before
			// the draw; evaluated batches re-check every commit, since the
			// condition may have fired while the evaluator ran.
			if (i > 0 || evaluator != nil) && stop() {
				aborted = true
				break
			}
			var o Outcome
			var key string
			var cached bool
			if seen != nil {
				key = cfg.Key()
				o, cached = seen[key]
			}
			switch {
			case evaluator != nil:
				o = outcomes[i]
				if o.Err != nil && !o.Cost.IsInf() {
					o.Cost = InfCost() // failed evaluations never win, whatever the evaluator sent
				}
			case !cached:
				o = evaluate(cf, cfg)
			}
			if seen != nil && !cached {
				seen[key] = o
			}

			commitMetrics(cached, o.Err)
			st.Evaluations++
			if !o.Cost.IsInf() {
				st.Valid++
			}
			evals = evals[:len(evals)+1]
			ev := &evals[len(evals)-1]
			*ev = Evaluation{
				Index:  st.Evaluations - 1,
				Config: cfg,
				Cost:   o.Cost,
				Err:    o.Err,
				At:     now().Sub(st.Start),
				Cached: cached,
			}
			if opts.Record {
				res.History = append(res.History, *ev)
			}
			if opts.OnEvaluation != nil {
				opts.OnEvaluation(*ev)
			}
			if !o.Cost.IsInf() && (st.Best == nil || order(o.Cost, st.Best)) {
				st.Best = o.Cost.Clone()
				st.BestConfig = cfg.Clone()
				st.improvements = append(st.improvements, improvement{at: now(), eval: st.Evaluations, cost: o.Cost.Primary()})
				res.Improvements = append(res.Improvements, *ev)
			}
		}
		bt.ReportCosts(evals)
		if evaluator != nil {
			mBatchMergeSeconds.Observe(time.Since(mergeStart).Seconds())
		}
		if aborted {
			break
		}
	}

	if evaluator == nil {
		// Inline batches are counted once per run: an atomic add per
		// evaluation would cost a tenth of the inline loop.
		mBatches.Add(batchIndex)
	}
	res.Best = st.BestConfig
	res.BestCost = st.Best
	res.Evaluations = st.Evaluations
	res.Valid = st.Valid
	res.Elapsed = now().Sub(st.Start)
	if span != nil {
		span.End(slog.Uint64("evaluations", res.Evaluations), slog.Uint64("valid", res.Valid))
	}
	return res, nil
}

// monoEpoch anchors evaluate's timing: time.Since reads only the monotonic
// clock, where time.Now reads the wall clock too, and at a few hundred
// nanoseconds per zero-cost evaluation the difference shows.
var monoEpoch = time.Now()

// evaluate runs one cost-function call inside the worker-occupancy gauge
// and the evaluation-latency histogram; a failed evaluation costs +inf so
// it never wins the comparison. Every cost-function call of the inline
// loop and the PoolEvaluator goes through it, so every *actual* execution
// — never a cache hit — lands in atf_evaluation_cost_seconds exactly once.
func evaluate(cf CostFunction, cfg *Config) Outcome {
	mWorkersBusy.Inc()
	start := time.Since(monoEpoch)
	cost, err := cf.Cost(cfg)
	mEvalSeconds.Observe((time.Since(monoEpoch) - start).Seconds())
	mWorkersBusy.Dec()
	if err != nil {
		cost = InfCost()
	}
	return Outcome{Cost: cost, Err: err}
}

// commitMetrics updates the process-wide evaluation counters for one
// committed evaluation.
func commitMetrics(cached bool, err error) {
	mEvaluations.Inc()
	if cached {
		mEvalCached.Inc()
	}
	if err != nil {
		mEvalFailed.Inc()
	}
}
