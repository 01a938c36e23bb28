package core

import "testing"

// Allocation budgets per committed evaluation of Explore over the saxpy
// space at N = 4096 (91 configurations) with a cost function that does not
// allocate. Most of the inline budget is Space.At building each
// configuration; the rest is per-run setup spread over the run. A
// goroutine, channel or slice per inline evaluation would break it.
const (
	inlineAllocsPerEval       = 6.22
	inlineCachedAllocsPerEval = 7.8
	poolAllocsPerEval         = 7.0
)

func TestExploreAllocationBudget(t *testing.T) {
	sp := mustSpace(t, saxpyParams(4096))
	zero := SingleCost(0)
	cf := CostFunc(func(*Config) (Cost, error) { return zero, nil })
	cases := []struct {
		name   string
		opts   ExploreOptions
		budget float64
	}{
		{"workers=1", ExploreOptions{Workers: 1}, inlineAllocsPerEval},
		{"workers=1/cache", ExploreOptions{Workers: 1, CacheCosts: true}, inlineCachedAllocsPerEval},
		{"workers=4", ExploreOptions{Workers: 4}, poolAllocsPerEval},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evals uint64
			allocs := testing.AllocsPerRun(20, func() {
				res, err := Explore(sp, &indexWalker{}, cf, nil, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				evals = res.Evaluations
			})
			if got := allocs / float64(evals); got > tc.budget {
				t.Fatalf("%.2f allocations per evaluation, budget %.1f", got, tc.budget)
			}
		})
	}
}
