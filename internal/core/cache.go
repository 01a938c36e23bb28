package core

import (
	"hash/maphash"
	"sync"
)

// costCache is the concurrent cost-evaluation cache behind PoolEvaluator
// (Explore's inline path keeps a plain map — no synchronization on the
// single-threaded path). It is sharded by key hash so workers evaluating
// different configurations do not contend on one lock, and it deduplicates
// in-flight work: when two workers ask for the same configuration at once,
// one evaluates and the other blocks on the entry's done channel, so the
// cost function runs at most once per configuration.
type costCache struct {
	seed   maphash.Seed
	shards [costCacheShards]costCacheShard
}

const costCacheShards = 32

type costCacheShard struct {
	mu sync.Mutex
	m  map[string]*costCacheEntry
}

type costCacheEntry struct {
	done chan struct{} // closed once out is set
	out  Outcome
}

func newCostCache() *costCache {
	c := &costCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*costCacheEntry)
	}
	return c
}

// getOrCompute returns the cached outcome for key, computing it via eval on
// the first request. Concurrent requests for the same key wait for the
// first evaluation instead of re-running it.
func (c *costCache) getOrCompute(key string, eval func() Outcome) Outcome {
	sh := &c.shards[maphash.String(c.seed, key)%costCacheShards]
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			mCostCacheHits.Inc()
		default:
			// In-flight dedup: another worker is evaluating this exact
			// configuration right now; wait for its result.
			mCostCacheInflight.Inc()
			<-e.done
		}
		return e.out
	}
	mCostCacheMisses.Inc()
	e := &costCacheEntry{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()

	e.out = eval()
	close(e.done)
	return e.out
}
