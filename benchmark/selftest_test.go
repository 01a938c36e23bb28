package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func selftestOptions(t *testing.T, trace bool) *options {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &options{seed: 1, seconds: 1, trace: trace, scale: 0.01, outDir: outDir, journalRoot: journalRoot(outDir), log: &bytes.Buffer{}}
}

// Every workload at 1/100 scale passes its own checks, untraced and
// traced, and emits exactly the catalog's metrics.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := selftestOptions(t, trace)
			r := runWorkload(w, o)
			if !r.Correct || r.Failed != 0 {
				t.Errorf("%s (trace %v): %d failed checks: %v\n%s", w.name, trace, r.Failed, r.Failures, o.log)
				continue
			}
			if r.Ops < 1 {
				t.Errorf("%s (trace %v): no ops", w.name, trace)
			}
			got, defs := r.EndToEnd, endToEnd
			if trace {
				got, defs = r.PerLayer, perLayer
			}
			if len(got) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics emitted, catalog has %d", w.name, trace, len(got), len(defs))
			}
			for _, d := range defs {
				v, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, catalog says %q", w.name, d.Name, v.Unit, d.Unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// The catalog in metrics.go and the workload list in main.go are what
// BENCHMARK.json declares: same names, units and directions, in order.
func TestCatalogMatchesContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q: want a letter or digit, then at most 63 letters, digits, _ . -", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name("workload", w.name)
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), main.go %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	check := func(kind string, declared []contractMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			name(kind+" metric", d.Name)
			m := declared[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("metric %s: direction %q", d.Name, d.Better)
			}
			if bounded && m.Bound != 0.10 {
				t.Errorf("end-to-end metric %s: bound %v, want 0.10", d.Name, m.Bound)
			}
			if !bounded && m.Bound != 0 {
				t.Errorf("per-layer metric %s carries a bound", d.Name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd, true)
	check("per-layer", c.PerLayer, perLayer, false)

	if c.bound("setup_s") == 0 {
		t.Error("BENCHMARK.json declares no setup_s")
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", c.Paths)
	}
}

// What a run leaves behind is ignored by git.
func TestOutDirIsIgnored(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, ".gitignore"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "benchmark/out/" {
			return
		}
	}
	t.Error(".gitignore does not list benchmark/out/")
}

// The quartile rule is the acceptance rule: Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, q3 := quartiles(v)
	if q1 != 1.75 || q3 != 5.25 { // statistics.quantiles([...], n=4) == [1.75, 3.5, 5.25]
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	if m := median(v); m != 3.5 {
		t.Errorf("median = %v, want 3.5", m)
	}
}

// The §6 rule: within the bound unchanged, beyond it regressed or
// improved, and unresolved when the runs' spread exceeds the bound unless
// the two sets do not overlap.
func TestVerdict(t *testing.T) {
	sum := func(v ...float64) summary {
		q1, q3 := quartiles(v)
		return summary{Median: median(v), Q1: q1, Q3: q3, Spread: spread(v), Values: v}
	}
	a := sum(100, 101, 99, 100, 102)
	cases := []struct {
		b      summary
		better string
		want   string
	}{
		{sum(103, 104, 102, 103, 105), "lower", "unchanged"},
		{sum(120, 121, 119, 120, 122), "lower", "regressed"},
		{sum(120, 121, 119, 120, 122), "higher", "improved"},
		{sum(80, 130, 95, 100, 125), "lower", "unresolved"},
		{sum(40, 80, 50, 60, 70), "lower", "improved"},
	}
	for _, c := range cases {
		if got := verdict(a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v, better %s) = %s, want %s", c.b.Values, c.better, got, c.want)
		}
	}
}
