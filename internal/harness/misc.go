package harness

import (
	"fmt"
	"time"

	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/opencl"
	"atf/internal/opentuner"
	"atf/internal/search"
)

// SizesResult is experiment E4: the unconstrained vs constrained space
// sizes of XgemmDirect (paper §VI-A: >10^19 vs ~10^7 at 2^10×2^10).
type SizesResult struct {
	RangeCap    int64
	Raw         string
	Constrained uint64
	CountTime   time.Duration
}

// Sizes runs E4 for the given range cap.
func Sizes(rangeCap int64, workers int) (*SizesResult, error) {
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: rangeCap})
	start := time.Now()
	n, _, err := core.CountGroup(core.G(params...), core.GenOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	// RawSize needs a Space shell; build a single-parameter space to get
	// the product over the same params without materializing anything.
	raw := rawProduct(rangeCap)
	return &SizesResult{
		RangeCap:    rangeCap,
		Raw:         fmt.Sprintf("%.4g", raw),
		Constrained: n,
		CountTime:   time.Since(start),
	}, nil
}

// SizesTable renders E4.
func SizesTable(rs []*SizesResult) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "XgemmDirect space sizes: unconstrained product vs valid configurations",
		Columns: []string{"range cap", "unconstrained", "constrained (valid)", "count time"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.RangeCap), r.Raw,
			fmt.Sprintf("%d", r.Constrained), r.CountTime.String(),
		})
	}
	t.Notes = append(t.Notes,
		"paper (2^10 x 2^10): unconstrained >10^19, constrained ~10^7; valid count saturates above cap 77 because 2*WGD*(WGD+pad)*4B must fit 48 KiB of local memory")
	return t
}

// RelaxedResult is experiment E5: dropping the two global-size
// divisibility constraints (possible in ATF because CLBlast pads the
// global size arithmetically) enlarges the space and improves the result.
type RelaxedResult struct {
	Device          string
	IS              string
	ConstrainedSize uint64
	RelaxedSize     uint64
	ConstrainedNs   float64 // +Inf when the constrained space is empty
	RelaxedNs       float64
	Improvement     float64
}

// Relaxed runs E5 on one device for every Caffe input size.
func Relaxed(deviceName string, opts Options) ([]*RelaxedResult, error) {
	opts.defaults()
	dev, err := opencl.FindDevice("", deviceName)
	if err != nil {
		return nil, err
	}
	relaxedParams := clblast.XgemmDirectParams(clblast.SpaceOptions{
		RangeCap:         opts.RangeCap,
		MaxWorkGroupSize: int64(dev.Desc.MaxWorkGroupSize),
		LocalMemBytes:    int64(dev.Desc.LocalMemBytes),
	})
	relaxedSpace, err := core.GenerateFlat(relaxedParams, core.GenOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}

	var out []*RelaxedResult
	for _, shape := range clblast.CaffeInputSizes() {
		eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)
		r := &RelaxedResult{Device: dev.Name(), IS: shape.Name, RelaxedSize: relaxedSpace.Size()}

		// Constrained variant: full ranges but WGD must divide M and N —
		// the CLTune-expressible formulation.
		conParams := clblast.XgemmDirectParams(clblast.SpaceOptions{
			RangeCap:              opts.RangeCap,
			GlobalSizeConstraints: true,
			Shape:                 shape,
			MaxWorkGroupSize:      int64(dev.Desc.MaxWorkGroupSize),
			LocalMemBytes:         int64(dev.Desc.LocalMemBytes),
		})
		conSpace, err := core.GenerateFlat(conParams, core.GenOptions{Workers: opts.Workers})
		if err != nil {
			return nil, err
		}
		r.ConstrainedSize = conSpace.Size()
		if conSpace.Size() > 0 {
			cr, err := core.Explore(conSpace,
				&search.Annealing{Start: clblast.DefaultConfig(), RestartAfter: 25},
				eval.CostFunction(),
				core.Evaluations(minU64(conSpace.Size(), opts.ATFEvals)),
				opts.exploreOptions())
			if err != nil {
				return nil, err
			}
			if cr.Best != nil {
				r.ConstrainedNs = cr.BestCost.Primary()
			}
		}

		rr, err := core.Explore(relaxedSpace,
			&search.Annealing{Start: clblast.DefaultConfig(), RestartAfter: 25},
			eval.CostFunction(),
			core.Evaluations(opts.ATFEvals),
			opts.exploreOptions())
		if err != nil {
			return nil, err
		}
		r.RelaxedNs = rr.BestCost.Primary()
		if r.ConstrainedNs > 0 {
			r.Improvement = r.ConstrainedNs / r.RelaxedNs
		}
		out = append(out, r)
	}
	return out, nil
}

// RelaxedTable renders E5.
func RelaxedTable(rs []*RelaxedResult) *Table {
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("relaxing the global-size constraints (%s)", rs[0].Device),
		Columns: []string{"IS", "constrained space", "relaxed space", "constrained best", "relaxed best", "improvement"},
	}
	for _, r := range rs {
		con := "-- (empty space)"
		imp := "--"
		if r.ConstrainedNs > 0 {
			con = ns2ms(r.ConstrainedNs)
			imp = f2(r.Improvement) + "x"
		}
		t.Rows = append(t.Rows, []string{
			r.IS, fmt.Sprintf("%d", r.ConstrainedSize), fmt.Sprintf("%d", r.RelaxedSize),
			con, ns2ms(r.RelaxedNs), imp,
		})
	}
	t.Notes = append(t.Notes,
		"paper (IS4): relaxing raised ATF's speedup from 12.85x to 17.60x (CPU) and 2.89x to 3.62x (GPU)")
	return t
}

// ValidityResult is experiment E6: OpenTuner on the raw space.
type ValidityResult struct {
	IS          string
	RawSize     string
	ValidSize   uint64
	Fraction    string
	Evaluations int
	ValidHits   int
}

// Validity runs E6: how often does the raw-space OpenTuner baseline hit a
// valid configuration within its budget?
func Validity(opts Options) ([]*ValidityResult, error) {
	opts.defaults()
	params := clblast.XgemmDirectParams(clblast.SpaceOptions{RangeCap: opts.RangeCap})
	valid, _, err := core.CountGroup(core.G(params...), core.GenOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	raw := rawProduct(opts.RangeCap)

	var out []*ValidityResult
	dev, err := opencl.FindDevice("", "K20m")
	if err != nil {
		return nil, err
	}
	for _, shape := range clblast.CaffeInputSizes() {
		eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)
		raw2 := &opentuner.RawTuner{
			Params: params,
			Validate: func(cfg *core.Config) bool {
				return clblast.ValidateConfig(cfg, params)
			},
		}
		run, err := raw2.Tune(eval.CostFunction(), opts.OpenTunerEvals, opts.Seed+int64(len(out)))
		if err != nil {
			return nil, err
		}
		out = append(out, &ValidityResult{
			IS:          shape.Name,
			RawSize:     fmt.Sprintf("%.3g", raw),
			ValidSize:   valid,
			Fraction:    fmt.Sprintf("%.2e", float64(valid)/raw),
			Evaluations: run.Evaluations,
			ValidHits:   run.ValidEvals,
		})
	}
	return out, nil
}

// ValidityTable renders E6.
func ValidityTable(rs []*ValidityResult) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "OpenTuner on the unconstrained space: valid configurations found",
		Columns: []string{"IS", "raw space", "valid configs", "valid fraction", "evaluations", "valid hits"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.IS, r.RawSize, fmt.Sprintf("%d", r.ValidSize), r.Fraction,
			fmt.Sprintf("%d", r.Evaluations), fmt.Sprintf("%d", r.ValidHits),
		})
	}
	t.Notes = append(t.Notes,
		"paper: OpenTuner finds no valid configuration within 10,000 evaluations (valid fraction ~1e-7 at IS4)")
	return t
}

// DefaultsResult is experiment E7: kernel defaults vs CLTune's 256×256
// device-optimized values on the deep-learning sizes.
type DefaultsResult struct {
	Device      string
	IS          string
	DefaultNs   float64
	DevOptNs    float64
	DefaultWins bool
}

// Defaults runs E7 on one device.
func Defaults(deviceName string, opts Options) ([]*DefaultsResult, error) {
	opts.defaults()
	dev, err := opencl.FindDevice("", deviceName)
	if err != nil {
		return nil, err
	}
	devOpt, err := deviceOptimized(dev, opts)
	if err != nil {
		return nil, err
	}
	var out []*DefaultsResult
	for _, shape := range clblast.CaffeInputSizes() {
		eval := clblast.NewGemmEvaluator(dev, shape, opts.Seed)
		defNs, err := eval.Eval(clblast.DefaultConfig())
		if err != nil {
			return nil, err
		}
		optNs, err := eval.Eval(devOpt)
		if err != nil {
			return nil, err
		}
		out = append(out, &DefaultsResult{
			Device: dev.Name(), IS: shape.Name,
			DefaultNs: defNs, DevOptNs: optNs,
			DefaultWins: defNs < optNs,
		})
	}
	return out, nil
}

// DefaultsTable renders E7.
func DefaultsTable(rs []*DefaultsResult) *Table {
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("kernel defaults vs device-optimized (256x256) values on %s", rs[0].Device),
		Columns: []string{"IS", "defaults", "device-optimized", "defaults win?"},
	}
	for _, r := range rs {
		t.Rows = append(t.Rows, []string{
			r.IS, ns2ms(r.DefaultNs), ns2ms(r.DevOptNs), fmt.Sprintf("%v", r.DefaultWins),
		})
	}
	t.Notes = append(t.Notes,
		"paper: 'surprisingly, in most cases, XgemmDirect's performance is better when using its default tuning parameter values' — small defaults parallelize better on the deep-learning sizes")
	return t
}

// GroupsResult is experiment E9: parallel (grouped) vs sequential space
// generation (Section V).
type GroupsResult struct {
	Groups     int
	SpaceSize  uint64
	Sequential time.Duration
	Parallel   time.Duration
	Speedup    float64
}

// Groups runs E9 with g independent dependency groups, each a three-level
// divisibility chain over [1, n].
func Groups(g int, n int64, workers int) (*GroupsResult, error) {
	build := func() []*core.Group {
		var groups []*core.Group
		for i := 0; i < g; i++ {
			a := core.NewParam(fmt.Sprintf("a%d", i), core.NewInterval(1, n))
			b := core.NewParam(fmt.Sprintf("b%d", i), core.NewInterval(1, n),
				core.Divides(core.Ref(fmt.Sprintf("a%d", i))))
			c := core.NewParam(fmt.Sprintf("c%d", i), core.NewInterval(1, n),
				core.Divides(core.Ref(fmt.Sprintf("b%d", i))))
			groups = append(groups, core.G(a, b, c))
		}
		return groups
	}

	start := time.Now()
	seqSpace, err := core.GenerateSpace(build(), core.GenOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	// Sequentialize across groups too: workers=1 still runs one goroutine
	// per group concurrently, so measure per-group generation serially.
	seq := time.Since(start)
	seqSerial := time.Duration(0)
	for _, grp := range build() {
		s := time.Now()
		if _, err := core.GenerateGroup(grp, core.GenOptions{Workers: 1}); err != nil {
			return nil, err
		}
		seqSerial += time.Since(s)
	}
	if seqSerial > seq {
		seq = seqSerial
	}

	start = time.Now()
	parSpace, err := core.GenerateSpace(build(), core.GenOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	par := time.Since(start)

	if seqSpace.Size() != parSpace.Size() {
		return nil, fmt.Errorf("harness: grouped generation size mismatch: %d vs %d",
			seqSpace.Size(), parSpace.Size())
	}
	return &GroupsResult{
		Groups:     g,
		SpaceSize:  parSpace.Size(),
		Sequential: seqSerial,
		Parallel:   par,
		Speedup:    float64(seqSerial) / float64(par),
	}, nil
}

// GroupsTable renders E9.
func GroupsTable(r *GroupsResult) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "parallel search-space generation with parameter groups (Section V)",
		Columns: []string{"groups", "space size", "sequential", "parallel", "speedup"},
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("%d", r.Groups), fmt.Sprintf("%d", r.SpaceSize),
		r.Sequential.String(), r.Parallel.String(), f2(r.Speedup) + "x",
	})
	t.Notes = append(t.Notes,
		"groups generate concurrently (one goroutine per group, root ranges split across workers); the cross-product space is never materialized")
	return t
}
