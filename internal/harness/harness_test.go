package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"atf/internal/clblast"
	"atf/internal/opencl"
)

// tinyOpts keeps the experiment tests fast; the assertions are about the
// paper-relevant *shape* of the results, which holds at small budgets too.
func tinyOpts() Options {
	return Options{
		Seed:           1,
		RangeCap:       16,
		ATFEvals:       50,
		OpenTunerEvals: 1500,
		DevOptEvals:    25,
	}
}

func TestFig2ShapeGPU(t *testing.T) {
	r, err := Fig2("K20m", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("expected 4 input sizes, got %d", len(r.Rows))
	}
	if r.DeviceOptimized == nil {
		t.Fatal("device-optimized fallback missing")
	}
	for _, row := range r.Rows {
		if row.ATFNs <= 0 || row.CLTuneNs <= 0 || row.OpenTunerNs <= 0 {
			t.Fatalf("%s: non-positive runtimes %+v", row.IS, row)
		}
		// At this deliberately tiny budget (range cap 16, 50 evaluations)
		// the CLTune fallback's WGD=32 configurations lie *outside* ATF's
		// capped space, so ATF can trail slightly; it must still be in
		// the same league. The full-budget headline shape (ATF >= both
		// baselines everywhere) is asserted by TestFig2FullShape and
		// recorded in EXPERIMENTS.md.
		if row.SpeedupVsCLTune < 0.7 {
			t.Errorf("%s: ATF far slower than CLTune fallback (%.2fx)", row.IS, row.SpeedupVsCLTune)
		}
		if row.SpeedupVsOpenTuner < 0.9 {
			t.Errorf("%s: ATF slower than OpenTuner fallback (%.2fx)", row.IS, row.SpeedupVsOpenTuner)
		}
	}
	checkOpenTunerVsDefaults(t, "K20m", tinyOpts().Seed, r)
	// Table renders in both formats.
	tbl := Fig2Table(r, "E2")
	var buf bytes.Buffer
	tbl.Render(&buf)
	if !strings.Contains(buf.String(), "IS4") {
		t.Error("table missing rows")
	}
	buf.Reset()
	tbl.Markdown(&buf)
	if !strings.Contains(buf.String(), "| IS1 |") {
		t.Error("markdown table malformed")
	}
}

// checkOpenTunerVsDefaults asserts §VI-B's fallback: the OpenTuner column
// never reports a kernel slower than CLBlast's shipped defaults, whether
// or not the raw tuner found a valid configuration.
func checkOpenTunerVsDefaults(t *testing.T, device string, seed int64, r *Fig2Result) {
	t.Helper()
	dev, err := opencl.FindDevice("", device)
	if err != nil {
		t.Fatal(err)
	}
	for i, shape := range clblast.CaffeInputSizes() {
		row := r.Rows[i]
		defNs, err := clblast.NewGemmEvaluator(dev, shape, seed).Eval(clblast.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if row.IS != shape.Name || row.OpenTunerNs > defNs {
			t.Errorf("%s/%s: OpenTuner %.0f ns, defaults %.0f ns on %s", device, row.IS, row.OpenTunerNs, defNs, shape.Name)
		}
	}
}

// TestFig2FullShape asserts the paper's headline result at full budgets
// (range cap 64, 400 evaluations). It takes about 12 s (CPU) plus 65 s
// (GPU) on a 2-vCPU Xeon, so it only runs when ATF_FULL_EXPERIMENTS=1 is
// set; the recorded run lives in EXPERIMENTS.md and results/fig2.md.
func TestFig2FullShape(t *testing.T) {
	if os.Getenv("ATF_FULL_EXPERIMENTS") == "" {
		t.Skip("set ATF_FULL_EXPERIMENTS=1 to run the full-budget Figure 2 shape test")
	}
	for _, dev := range []string{"K20m", "Xeon"} {
		r, err := Fig2(dev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.SpeedupVsCLTune < 1 {
				t.Errorf("%s/%s: ATF slower than CLTune (%.2fx)", dev, row.IS, row.SpeedupVsCLTune)
			}
			if row.SpeedupVsOpenTuner < 1 {
				t.Errorf("%s/%s: ATF slower than OpenTuner (%.2fx)", dev, row.IS, row.SpeedupVsOpenTuner)
			}
		}
		checkOpenTunerVsDefaults(t, dev, 1, r)
	}
}

func TestSpaceGenShape(t *testing.T) {
	r, err := SpaceGen(16, 100000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.CLTuneAborted {
		t.Fatal("budget 1e5 must abort on the 16-cap product (>10^9)")
	}
	// ATF finishes; its visit count is orders of magnitude below the raw
	// product.
	if r.ATFSize == 0 {
		t.Fatal("ATF found no configs")
	}
	if r.ATFChecks >= 1<<30 {
		t.Fatalf("ATF checks suspiciously high: %d", r.ATFChecks)
	}
	if r.CLTuneProjected < r.ATFTime {
		t.Fatalf("projected CLTune time (%v) must exceed ATF's (%v)",
			r.CLTuneProjected, r.ATFTime)
	}
	var buf bytes.Buffer
	SpaceGenTable(r).Render(&buf)
	if !strings.Contains(buf.String(), "ABORTED") {
		t.Error("table should mark the abort")
	}
}

func TestSizesShape(t *testing.T) {
	r, err := Sizes(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Constrained == 0 {
		t.Fatal("no valid configs")
	}
	// Raw/constrained ratio is the paper's point.
	if float64(r.Constrained) > 1.074e9/100 {
		t.Fatalf("constrained (%d) should be a tiny fraction of raw 1.07e9", r.Constrained)
	}
	var buf bytes.Buffer
	SizesTable([]*SizesResult{r}).Render(&buf)
	if !strings.Contains(buf.String(), "16") {
		t.Error("table malformed")
	}
}

func TestRelaxedShape(t *testing.T) {
	rs, err := Relaxed("K20m", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("4 input sizes expected, got %d", len(rs))
	}
	for _, r := range rs {
		// Dropping constraints can only enlarge the space.
		if r.RelaxedSize < r.ConstrainedSize {
			t.Fatalf("%s: relaxed space (%d) smaller than constrained (%d)",
				r.IS, r.RelaxedSize, r.ConstrainedSize)
		}
		if r.RelaxedNs <= 0 {
			t.Fatalf("%s: no relaxed result", r.IS)
		}
	}
	var buf bytes.Buffer
	RelaxedTable(rs).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

func TestValidityShape(t *testing.T) {
	opts := tinyOpts()
	rs, err := Validity(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Evaluations != opts.OpenTunerEvals {
			t.Fatalf("%s: evaluations %d", r.IS, r.Evaluations)
		}
		// With valid fraction ~8e-5 at cap 16 and 1500 evals, a handful
		// of hits is possible but the overwhelming majority must be
		// penalized — the §VI-B effect.
		if r.ValidHits > r.Evaluations/10 {
			t.Fatalf("%s: too many valid hits (%d of %d) — penalty path broken?",
				r.IS, r.ValidHits, r.Evaluations)
		}
	}
	var buf bytes.Buffer
	ValidityTable(rs).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

func TestDefaultsShape(t *testing.T) {
	rs, err := Defaults("Xeon", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rs {
		if r.DefaultNs <= 0 || r.DevOptNs <= 0 {
			t.Fatalf("%s: non-positive times", r.IS)
		}
		if r.DefaultWins {
			wins++
		}
	}
	// §VI-B: "in most cases" the defaults win on the deep-learning sizes.
	if wins < 2 {
		t.Errorf("defaults won only %d of 4 — paper expects most", wins)
	}
	var buf bytes.Buffer
	DefaultsTable(rs).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

func TestGroupsShape(t *testing.T) {
	r, err := Groups(3, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.SpaceSize == 0 {
		t.Fatal("empty grouped space")
	}
	if r.Sequential <= 0 || r.Parallel <= 0 {
		t.Fatal("timings missing")
	}
	var buf bytes.Buffer
	GroupsTable(r).Render(&buf)
	if buf.Len() == 0 {
		t.Error("empty table")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "X",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "note: a note") {
		t.Fatalf("render malformed:\n%s", out)
	}
	buf.Reset()
	tbl.Markdown(&buf)
	if !strings.Contains(buf.String(), "| a | long-column |") {
		t.Fatalf("markdown malformed:\n%s", buf.String())
	}
}

func TestFig2UnknownDevice(t *testing.T) {
	if _, err := Fig2("NoSuchDevice", tinyOpts()); err == nil {
		t.Fatal("unknown device must error")
	}
}

func TestSpeedupNumbersConsistent(t *testing.T) {
	r, err := Fig2("K20m", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if diff := row.SpeedupVsCLTune - row.CLTuneNs/row.ATFNs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: speedup inconsistent", row.IS)
		}
	}
	_ = time.Now() // keep time import for future timing assertions
}
