package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric of the catalog. BENCHMARK.json at the repo
// root declares the same names, units and directions (the selftest keeps
// the two equal) and is the only place a regression bound is written.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Exact marks a count that must repeat exactly for a fixed seed
	// (choosing-metrics §8: only such counts may carry a claim alone).
	Exact bool
}

// endToEnd lists the six end-to-end metrics, the same six on every
// workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ttfe_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "session_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_eval", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer lists the per-layer metrics. A workload that never enters a
// layer through a seam this package can wrap reports 0 for that layer's
// workload-derived metrics; the probes (probes.go) run on every workload.
var perLayer = []metricDef{
	{Name: "atf.spec_build_us", Unit: "us", Better: "lower"},

	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.unique_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.arena_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "core.census_ms", Unit: "ms", Better: "lower"},
	{Name: "core.census_checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.sweep_ns_per_config", Unit: "ns", Better: "lower"},
	{Name: "core.at_ns", Unit: "ns", Better: "lower"},
	{Name: "core.at_lazy_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lazy_expansions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.lazy_evictions", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.lazy_resident_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "core.explore_self_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "core.cost_cache_hit_share", Unit: "share", Better: "higher"},

	{Name: "search.propose_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "search.report_ns_per_eval", Unit: "ns", Better: "lower"},
	{Name: "search.best_cost_ns", Unit: "ns", Better: "lower", Exact: true},
	{Name: "search.evals_to_best", Unit: "count", Better: "lower", Exact: true},

	{Name: "clblast.eval_cold_us", Unit: "us", Better: "lower"},
	{Name: "clblast.eval_warm_us", Unit: "us", Better: "lower"},
	{Name: "oclc.compile_cold_us", Unit: "us", Better: "lower"},
	{Name: "oclc.compile_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "oclc.compile_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "oclc.vm_instructions_per_eval", Unit: "count", Better: "lower", Exact: true},
	{Name: "oclc.vec_fallback_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "opencl.enqueue_us", Unit: "us", Better: "lower"},
	{Name: "perfmodel.estimate_us", Unit: "us", Better: "lower"},

	{Name: "server.create_ms", Unit: "ms", Better: "lower"},
	{Name: "server.status_us", Unit: "us", Better: "lower"},
	{Name: "server.session_warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.session_cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.session_p98_ms", Unit: "ms", Better: "lower"},
	{Name: "server.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "server.journal_append_disk_us", Unit: "us", Better: "lower"},
	{Name: "server.journal_records_per_eval", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.journal_bytes_per_eval", Unit: "bytes", Better: "lower"},
	{Name: "server.journal_read_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stream_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.shared_cost_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.space_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.eval_slot_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Exact: true},

	{Name: "dist.lane_efficiency", Unit: "share", Better: "higher"},
	{Name: "dist.batch_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.worker_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.request_bytes_per_eval", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "dist.response_bytes_per_eval", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "dist.remote_share", Unit: "share", Better: "higher"},
	{Name: "dist.local_fallback_evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "dist.redispatched_partitions", Unit: "count", Better: "lower", Exact: true},

	{Name: "state.save_ms", Unit: "ms", Better: "lower"},
	{Name: "state.load_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.alloc_bytes_per_eval", Unit: "bytes", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.live_heap_mb", Unit: "MB", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}

// value is one reported metric: the contract's {"value", "unit"} pair
// plus, in result files, the raw per-pass values behind a median and
// their in-run spread (IQR ÷ median), so a noisy cell is visible in the
// file that contains it.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Passes []float64 `json:"passes,omitempty"`
	Spread float64   `json:"spread,omitempty"`
}

// metrics maps metric name to value.
type metrics map[string]value

// set records a single measured value under its catalog unit.
func (m metrics) set(defs []metricDef, name string, v float64) {
	m[name] = value{Value: v, Unit: unitOf(defs, name)}
}

// setMedian records the median of the per-pass values and keeps them.
func (m metrics) setMedian(defs []metricDef, name string, passes []float64) {
	m[name] = value{
		Value:  median(passes),
		Unit:   unitOf(defs, name),
		Passes: passes,
		Spread: spread(passes),
	}
}

// pool replaces a median over per-pass medians by the median over the
// pooled samples of all passes; the per-pass values stay as the raw ones.
func (m metrics) pool(name string, pooled float64) {
	v := m[name]
	v.Value = pooled
	m[name] = v
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not in the catalog", name))
}

// fillZero gives every catalog metric that was not measured the value 0.
func (m metrics) fillZero(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = value{Unit: d.Unit}
		}
	}
}

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is the rule the acceptance spread is defined by.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	d := (q3 - q1) / m
	if d < 0 {
		d = -d
	}
	return d
}

// contractMetric is one metric declaration of BENCHMARK.json.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the benchmark writes only under <root>/benchmark/out.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("benchmark: BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// bound returns the regression bound BENCHMARK.json fixes for an
// end-to-end metric.
func (c *contract) bound(name string) float64 {
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
