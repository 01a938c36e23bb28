// Command benchmark is the repository's time ledger: five long-run
// workloads, six end-to-end metrics on each, per-layer probes and a traced
// run (README.md in this directory; BENCHMARK.json at the repo root is
// the contract).
//
// From this directory, which is a module of its own:
//
//	go run .                            every workload, each in its own process
//	go run . -trace 1                   ... followed by its traced run
//	go run . -repeat 5 -out a.json      five full sets, rows + medians + quartiles
//	go run . -compare a.json b.json     the two sets against BENCHMARK.json's bounds
//	go run . -workload zero-sweep -seed 3 -seconds 10 -trace 0
//
// The last form runs one workload in this process and ends its standard
// output with one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. Any failed check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Sizes of the two daemon workloads (the in-process ones are sized where
// they are set up).
const (
	tenantEvals   = 500 // evaluations per atfd-tenants session
	tenantPerPass = 300 // sessions per timed pass
	fleetEvals    = 600 // evaluations per fleet-latency session
	fleetDelay    = 2 * time.Millisecond
)

// workloads is the benchmark: five workloads, closed loop throughout.
var workloads = []workloadDef{
	{
		name:   "zero-sweep",
		why:    "exhaustive sweep of capped XgemmDirect with a free cost function: time per evaluation is core + search overhead",
		passes: 6,
		setups: 3,
		setup:  setupZeroSweep,
	},
	{
		name:   "lazy-random",
		why:    "fresh lazy census of uncapped XgemmDirect, then random access beyond the slab budget: core used the other way round",
		passes: 6,
		setups: 3,
		setup:  setupLazyRandom,
	},
	{
		name:   "gemm-anneal",
		why:    "annealing over the simulated XgemmDirect kernel: oclc compile + VM, opencl, perfmodel and clblast do the work",
		passes: 6,
		setups: 3,
		setup:  setupGemmAnneal,
	},
	{
		name:   "atfd-tenants",
		why:    "two clients re-submit cheap expr sessions to the daemon (75 % seen specs): the per-evaluation price of the server layers",
		passes: 5,
		setups: 13,
		setup:  setupTenants,
	},
	{
		name:   "fleet-latency",
		why:    "sleeping cost function over 2 workers x 4 lanes: how well dist keeps lanes busy, insensitive to CPU noise",
		passes: 5,
		setups: 5,
		setup:  setupFleetLatency,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is what the driver's contract asks for on the last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// contractMetrics strips a row's metrics to the contract's
// {"value", "unit"} pairs.
func contractMetrics(m metrics) metrics {
	out := metrics{}
	for name, v := range m {
		out[name] = value{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// flags are the command line.
type flags struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
	compare  bool
	out      string
	rowFile  string
}

func main() {
	var f flags
	trace := 0
	flag.StringVar(&f.workload, "workload", "", "run this one workload in this process (default: all, each in its own child process)")
	flag.Int64Var(&f.seed, "seed", 1, "workload seed; every technique and spec seed derives from it")
	flag.IntVar(&f.seconds, "seconds", 10, "nominal length of each workload's timed window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
	flag.IntVar(&f.repeat, "repeat", 1, "run this many full sets and report medians and quartiles")
	flag.BoolVar(&f.compare, "compare", false, "compare two result files (arguments) against BENCHMARK.json's bounds")
	flag.StringVar(&f.out, "out", "", "result file (default benchmark/out/bench.json)")
	flag.StringVar(&f.rowFile, "row", "", "with -workload: also write the full result row to this file")
	flag.Parse()
	f.trace = trace != 0

	if err := run(f, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(f flags, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if f.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(root, args[0], args[1], os.Stdout)
	}
	if f.seconds < 1 || f.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if f.workload != "" {
		o := &options{seed: f.seed, seconds: f.seconds, trace: f.trace, scale: 1, outDir: outDir, journalRoot: journalRoot(outDir), log: os.Stdout}
		return runOne(f.workload, o, f.rowFile)
	}
	if f.out == "" {
		f.out = filepath.Join(outDir, "bench.json")
	}
	return runAll(root, outDir, f)
}

// runOne runs one workload in this process and prints the contract's
// result line.
func runOne(name string, o *options, rowFile string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := runWorkload(w, o)
	printRow(o.log, r)
	if rowFile != "" {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(rowFile, data, 0o644); err != nil {
			return err
		}
	}
	if !r.Correct {
		return fmt.Errorf("workload %s failed %d checks: %v", name, r.Failed, r.Failures)
	}
	reported := r.EndToEnd
	if o.trace {
		reported = r.PerLayer
	}
	line, err := json.Marshal(result{Correct: true, Attempted: r.Ops, Failed: 0, Metrics: contractMetrics(reported)})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.log, string(line))
	return nil
}

// printRow prints every metric of a row by name with its unit.
func printRow(w io.Writer, r *row) {
	fmt.Fprintf(w, "%s: ops %d, failed %d", r.Workload, r.Ops, r.Failed)
	if r.Passes > 0 {
		fmt.Fprintf(w, ", %d passes in %.1f s (shortest %.2f s)", r.Passes, r.WindowS, r.MinPassS)
	}
	if len(r.Notes) > 0 {
		fmt.Fprintf(w, ", noise rules: %s", strings.Join(r.Notes, " "))
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	print := func(defs []metricDef, m metrics) {
		for _, d := range defs {
			v, ok := m[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-34s %16s %-6s", d.Name, strconv.FormatFloat(v.Value, 'g', 8, 64), v.Unit)
			if len(v.Passes) > 1 {
				fmt.Fprintf(w, " in-run spread %4.1f%%", 100*v.Spread)
			}
			fmt.Fprintln(w)
		}
	}
	print(endToEnd, r.EndToEnd)
	print(perLayer, r.PerLayer)
}

// resultFile is what -out holds: the environment, every run's rows, and
// per (workload, metric) the median and quartiles over the runs.
type resultFile struct {
	Env     environment                   `json:"env"`
	Runs    [][]*row                      `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) ÷ median
	Values []float64 `json:"values"`
}

// runAll runs every workload in a child process of its own, so that peak
// memory and CPU time belong to one workload; with trace on, each
// workload's traced run follows in a second child.
func runAll(root, outDir string, f flags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: newEnvironment(root, journalRoot(outDir), f.seed, f.seconds)}
	probe := &options{seed: f.seed, scale: 1}
	if d, err := appendProbe(outDir, probeSpec(probe), probe.scaled(400, 20)); err == nil {
		file.Env.FsyncProbeUs = us(d)
	} else {
		return fmt.Errorf("fsync probe: %w", err)
	}
	failed := 0
	for rep := 0; rep < f.repeat; rep++ {
		var rows []*row
		for _, w := range workloads {
			r, err := runChild(self, root, outDir, w.name, f, false)
			if err != nil {
				return err
			}
			if f.trace {
				t, err := runChild(self, root, outDir, w.name, f, true)
				if err != nil {
					return err
				}
				r.PerLayer, r.Trace = t.PerLayer, t.Trace
				r.Ops += t.Ops
				r.Failed += t.Failed
				r.Failures = append(r.Failures, t.Failures...)
				r.Correct = r.Correct && t.Correct
			}
			failed += r.Failed
			rows = append(rows, r)
		}
		file.Runs = append(file.Runs, rows)
	}
	file.Summary = summarize(file.Runs)
	printSummary(os.Stdout, file)
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(f.out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("result file: %s\n", f.out)
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// runChild runs one workload in a child process and reads its row back.
func runChild(self, root, outDir, name string, f flags, trace bool) (*row, error) {
	rowFile := filepath.Join(outDir, fmt.Sprintf("row-%d.json", os.Getpid()))
	defer os.Remove(rowFile)
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.Itoa(f.seconds), "-trace", traceArg, "-row", rowFile)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(rowFile)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", name, runErr)
		}
		return nil, err
	}
	var r row
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

func summarize(runs [][]*row) map[string]map[string]summary {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, rows := range runs {
		for _, r := range rows {
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for _, m := range []metrics{r.EndToEnd, r.PerLayer} {
				for name, v := range m {
					values[r.Workload][name] = append(values[r.Workload][name], v.Value)
					units[name] = v.Unit
				}
			}
		}
	}
	out := map[string]map[string]summary{}
	for w, ms := range values {
		out[w] = map[string]summary{}
		for name, v := range ms {
			q1, q3 := quartiles(v)
			out[w][name] = summary{Unit: units[name], Median: median(v), Q1: q1, Q3: q3, Spread: spread(v), Values: v}
		}
	}
	return out
}

// printSummary prints the 30 end-to-end cells, then the per-layer
// metrics when a traced run measured them.
func printSummary(w io.Writer, f resultFile) {
	e := f.Env
	fmt.Fprintf(w, "\nenvironment: nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, journals in %s (%s)\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Seed, e.JournalDir, e.JournalFS)
	fmt.Fprintf(w, "%-14s %-18s %16s %-6s %10s\n", "workload", "metric", "median", "unit", "spread %")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				s, ok := f.Summary[wl.name][d.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "%-14s %-34s %16s %-6s %10.2f\n", wl.name, d.Name,
					strconv.FormatFloat(s.Median, 'g', 8, 64), s.Unit, 100*s.Spread)
			}
		}
	}
}
