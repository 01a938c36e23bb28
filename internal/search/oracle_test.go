package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"atf/internal/core"
)

// historyDigest folds a run's evaluation history into one number: every
// evaluation's index, configuration key, cost vector and Cached flag, in
// commit order.
func historyDigest(res *core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(res.History)))
	for _, ev := range res.History {
		put(ev.Index)
		h.Write([]byte(ev.Config.Key()))
		for _, c := range ev.Cost {
			put(math.Float64bits(c))
		}
		if ev.Cached {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// oracleSpace is the saxpy space of the paper's Listing 2 at N = 256: 45
// configurations of (WPT, LS).
func oracleSpace(t *testing.T) *core.Space {
	t.Helper()
	const n = 256
	sp, err := core.GenerateFlat([]*core.Param{
		core.NewParam("WPT", core.NewInterval(1, n), core.Divides(n)),
		core.NewParam("LS", core.NewInterval(1, n),
			core.Divides(func(c *core.Config) int64 { return n / c.Int("WPT") })),
	}, core.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// oracleCost has a unique minimum and one failing configuration, so the
// digests cover infinite costs and cached errors too.
var oracleCost = core.CostFunc(func(cfg *core.Config) (core.Cost, error) {
	wpt, ls := cfg.Int("WPT"), cfg.Int("LS")
	if wpt == 2 && ls == 2 {
		return nil, errors.New("launch failed")
	}
	d := float64(wpt - 8)
	return core.SingleCost(3*d*d + float64(ls) + 0.5), nil
})

// TestSequentialWalkDigests pins the sequential exploration walk of every
// search technique: each run's History, folded into a digest, must stay
// bit-identical to the recorded constant, with the cost cache on and off
// and with an evaluation budget that ends the run mid-space.
func TestSequentialWalkDigests(t *testing.T) {
	sp := oracleSpace(t)
	runs := []struct {
		name  string
		tech  func() core.Technique
		abort core.AbortCondition
		want  [2]uint64 // cache off, cache on
	}{
		{"exhaustive", func() core.Technique { return NewExhaustive() }, nil, [2]uint64{0x41145ec6cceb41c6, 0x41145ec6cceb41c6}},
		{"exhaustive-budget", func() core.Technique { return NewExhaustive() }, core.Evaluations(20), [2]uint64{0x6e7dfd607cfeb827, 0x6e7dfd607cfeb827}},
		{"random", func() core.Technique { return NewRandom() }, core.Evaluations(120), [2]uint64{0xa6d4e421e963da6a, 0xa015b6d7c2f11650}},
		{"annealing", func() core.Technique { return NewAnnealing() }, core.Evaluations(150), [2]uint64{0xa9c1d807532ddde1, 0xd2354f920db03096}},
		{"local", func() core.Technique { return NewLocalSearch(5) }, core.Evaluations(150), [2]uint64{0x7907c3d7337bfb24, 0x15406c0338ece4dc}},
	}
	for _, run := range runs {
		for i, cache := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", run.name, cache), func(t *testing.T) {
				res, err := core.Explore(sp, run.tech(), oracleCost, run.abort,
					core.ExploreOptions{Seed: 11, Record: true, CacheCosts: cache})
				if err != nil {
					t.Fatal(err)
				}
				if got := historyDigest(res); got != run.want[i] {
					t.Fatalf("digest = %#x, want %#x (%d evaluations)", got, run.want[i], res.Evaluations)
				}
			})
		}
	}
}
