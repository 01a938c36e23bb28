package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// historyDigest folds a run's evaluation history into one number: every
// evaluation's index, configuration key, cost vector and Cached flag, in
// commit order.
func historyDigest(res *Result) uint64 {
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

// TestSequentialWalkDigests pins the sequential exploration walk over the
// test techniques: each run's History, folded into a digest, must stay
// bit-identical to the recorded constant, with the cost cache on and off,
// with a budget that ends the run mid-space, and with a failing cost.
func TestSequentialWalkDigests(t *testing.T) {
	const n = 96
	sp := mustSpace(t, saxpyParams(n))
	failing := CostFunc(func(cfg *Config) (Cost, error) {
		if cfg.Int("WPT")%3 == 0 {
			return nil, errors.New("launch failed")
		}
		return SingleCost(float64(cfg.Int("WPT") * cfg.Int("LS"))), nil
	})
	runs := []struct {
		name  string
		tech  func() Technique
		cf    CostFunction
		abort AbortCondition
		want  [2]uint64 // cache off, cache on
	}{
		{"walker", func() Technique { return &indexWalker{} }, quadCost(n), nil, [2]uint64{0xc45e06ecfd3d393, 0xc45e06ecfd3d393}},
		{"walker-budget", func() Technique { return &indexWalker{} }, quadCost(n), Evaluations(13), [2]uint64{0xfb6a29098b6446cd, 0xfb6a29098b6446cd}},
		{"walker-failing", func() Technique { return &indexWalker{} }, failing, nil, [2]uint64{0x9d676eafc115be41, 0x9d676eafc115be41}},
		{"random", func() Technique { return &randomTechnique{} }, quadCost(n), Evaluations(60), [2]uint64{0xfe98eab2d179d50, 0xd821875731f8013e}},
		{"stuck-failing", func() Technique { return &stuckTechnique{} }, failing, Evaluations(5), [2]uint64{0x499184e27c89dffd, 0x3af544772547522d}},
	}
	for _, run := range runs {
		for i, cache := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", run.name, cache), func(t *testing.T) {
				res, err := Explore(sp, run.tech(), run.cf, run.abort,
					ExploreOptions{Seed: 42, Record: true, CacheCosts: cache})
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
