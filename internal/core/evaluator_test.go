package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

// reversePoolEvaluator evaluates batches through a PoolEvaluator but
// hands them over in reverse order, modeling an evaluator whose internal
// completion order has nothing to do with batch order.
type reversePoolEvaluator struct {
	pool    *PoolEvaluator
	batches []BatchMark
}

func (r *reversePoolEvaluator) EvaluateBatch(ctx context.Context, batchIndex uint64, batch []*Config) ([]Outcome, error) {
	r.batches = append(r.batches, BatchMark{Index: batchIndex, Size: len(batch)})
	rev := make([]*Config, len(batch))
	for i, cfg := range batch {
		rev[len(batch)-1-i] = cfg
	}
	outs, err := r.pool.EvaluateBatch(ctx, batchIndex, rev)
	if err != nil {
		return nil, err
	}
	back := make([]Outcome, len(outs))
	for i := range outs {
		back[len(outs)-1-i] = outs[i]
	}
	return back, nil
}

// TestCustomEvaluatorDeterministic proves the BatchEvaluator seam: a
// custom evaluator that computes outcomes in a different internal order
// still yields results bit-identical to the Workers: 1 reference, because
// merging happens engine-side in batch order.
func TestCustomEvaluatorDeterministic(t *testing.T) {
	sp := mustSpace(t, saxpyParams(96))
	cf := ScalarCostFunc(func(cfg *Config) float64 {
		return float64((cfg.Int("WPT")-7)*(cfg.Int("WPT")-7)) + float64(cfg.Int("LS"))
	})

	ref, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{Record: true, CacheCosts: true})
	if err != nil {
		t.Fatal(err)
	}

	pool, err := NewPoolEvaluator(cf, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ev := &reversePoolEvaluator{pool: pool}
	var marks []BatchMark
	got, err := Explore(sp, &indexWalker{}, cf, nil, ExploreOptions{
		Record:     true,
		CacheCosts: true,
		Workers:    4,
		Evaluator:  ev,
		OnBatch:    func(m BatchMark) { marks = append(marks, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, ref, got, "custom evaluator")
	checkMarks(t, marks, got.Evaluations)
	if len(ev.batches) != len(marks) {
		t.Fatalf("evaluator saw %d batches, hook saw %d", len(ev.batches), len(marks))
	}
}

// checkMarks asserts that the batch marks partition the evaluation
// sequence exactly: consecutive indices, each batch starting where the
// previous one ended, together covering every committed evaluation.
func checkMarks(t *testing.T, marks []BatchMark, evaluations uint64) {
	t.Helper()
	var next uint64
	for i, m := range marks {
		if m.Index != uint64(i) {
			t.Fatalf("mark %d has index %d", i, m.Index)
		}
		if m.StartEval != next {
			t.Fatalf("mark %d starts at %d, want %d", i, m.StartEval, next)
		}
		next += uint64(m.Size)
	}
	if next != evaluations {
		t.Fatalf("marks cover %d evaluations, result has %d", next, evaluations)
	}
}

// TestExploreStopsAtBudget: an evaluation budget ends the run before the
// next batch is drawn, so the cost function runs exactly once per
// committed evaluation and no batch mark is left uncommitted — inline, on
// the pool, and behind a custom evaluator.
func TestExploreStopsAtBudget(t *testing.T) {
	const budget = 16
	sp := mustSpace(t, saxpyParams(96))
	for _, workers := range []int{1, 2, 8} {
		for _, custom := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/evaluator=%v", workers, custom), func(t *testing.T) {
				var calls atomic.Int64
				cf := CostFunc(func(cfg *Config) (Cost, error) {
					calls.Add(1)
					return SingleCost(float64(cfg.Int("WPT"))), nil
				})
				var marks []BatchMark
				opts := ExploreOptions{Workers: workers, OnBatch: func(m BatchMark) { marks = append(marks, m) }}
				if custom {
					pool, err := NewPoolEvaluator(cf, workers, false)
					if err != nil {
						t.Fatal(err)
					}
					defer pool.Close()
					opts.Evaluator = pool
				}
				res, err := Explore(sp, &indexWalker{}, cf, Evaluations(budget), opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.Evaluations != budget || calls.Load() != budget {
					t.Fatalf("%d evaluations, %d cost calls; want %d of each", res.Evaluations, calls.Load(), budget)
				}
				checkMarks(t, marks, res.Evaluations)
			})
		}
	}
}

// TestPoolEvaluatorConcurrentCalls exercises one pool from concurrent
// EvaluateBatch callers — the shape of an atf-worker serving overlapping
// partitions — under the race detector.
func TestPoolEvaluatorConcurrentCalls(t *testing.T) {
	sp := mustSpace(t, saxpyParams(64))
	cf := ScalarCostFunc(func(cfg *Config) float64 { return float64(cfg.Int("WPT")) })
	pool, err := NewPoolEvaluator(cf, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	batch := make([]*Config, sp.Size())
	for i := range batch {
		batch[i] = sp.At(uint64(i))
	}
	done := make(chan []Outcome, 4)
	for g := 0; g < 4; g++ {
		go func() {
			outs, err := pool.EvaluateBatch(context.Background(), 0, batch)
			if err != nil {
				t.Error(err)
			}
			done <- outs
		}()
	}
	first := <-done
	for g := 1; g < 4; g++ {
		outs := <-done
		for i := range outs {
			if outs[i].Cost.String() != first[i].Cost.String() {
				t.Fatalf("outcome %d differs across concurrent calls", i)
			}
		}
	}
}
