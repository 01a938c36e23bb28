package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"atf"
	"atf/internal/clblast"
	"atf/internal/core"
	"atf/internal/oclc"
	"atf/internal/opencl"
	"atf/internal/perfmodel"
	"atf/internal/server"
	"atf/internal/server/client"
	"atf/internal/state"
)

// The probes time calls into each package's public functions with fixed,
// seeded inputs. They do not depend on the workload, so the traced run of
// every workload repeats them: a layer's probe reads the same whichever
// row it is printed in, and a change to the layer shows in all of them.

func openclDevice(name string) (*opencl.Device, error) { return opencl.FindDevice("", name) }

// medianOf runs f n times and returns the median duration of a call; it
// stops at the first error.
func medianOf(n int, f func(i int) error) (time.Duration, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func runProbes(o *options, m metrics) error {
	eager, err := probeCore(o, m)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := probeKernel(o, m, eager); err != nil {
		return fmt.Errorf("kernel: %w", err)
	}
	if err := probeServer(o, m); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return probeState(o, m)
}

// probeCore times space generation, the census, the sweep cursor and
// random access on the two XgemmDirect spaces the in-process workloads
// use. It returns the eager space for the kernel probe to draw from.
func probeCore(o *options, m metrics) (*core.Space, error) {
	eagerCap, lazyCap, samples, slab := int64(64), int64(512), 100000, int64(4<<20)
	if o.scale < 1 {
		eagerCap, lazyCap, samples, slab = 16, 24, 2000, 64<<10
	}
	limits := clblast.SpaceOptions{MaxWorkGroupSize: k20mMaxWorkGroup, LocalMemBytes: k20mLocalMem}

	var eager, lazy *core.Space
	generate := func(dst **core.Space, opts core.GenOptions) func(int) error {
		return func(int) (err error) {
			*dst, err = core.GenerateSpace([]*core.Group{core.G(clblast.XgemmDirectParams(limits)...)}, opts)
			return err
		}
	}
	limits.RangeCap = eagerCap
	gen, err := medianOf(3, generate(&eager, core.GenOptions{Workers: genWorkers, Mode: core.SpaceEager}))
	if err != nil {
		return nil, err
	}
	m.set(perLayer, "core.generate_ms", ms(gen))
	m.set(perLayer, "core.checks", float64(eager.Checks()))
	_, unique := eager.NodeCounts()
	m.set(perLayer, "core.unique_nodes", float64(unique))
	m.set(perLayer, "core.arena_bytes", float64(eager.ArenaBytes()))

	t0 := time.Now()
	sw := eager.Sweep(0, core.SweepOptions{})
	swept := 0
	for chunk := sw.NextChunk(256); chunk != nil; chunk = sw.NextChunk(256) {
		swept += len(chunk)
	}
	sw.Close()
	if uint64(swept) != eager.Size() {
		return nil, fmt.Errorf("sweep emitted %d of %d configurations", swept, eager.Size())
	}
	m.set(perLayer, "core.sweep_ns_per_config", float64(time.Since(t0))/float64(swept))

	rng := rand.New(rand.NewSource(o.seed))
	t0 = time.Now()
	for i := 0; i < samples; i++ {
		eager.At(eager.RandomIndex(rng))
	}
	m.set(perLayer, "core.at_ns", float64(time.Since(t0))/float64(samples))

	limits.RangeCap, limits.DivisorHints = lazyCap, true
	census, err := medianOf(2, generate(&lazy, core.GenOptions{Workers: genWorkers, Mode: core.SpaceLazy, MaxArenaBytes: slab}))
	if err != nil {
		return nil, err
	}
	m.set(perLayer, "core.census_ms", ms(census))
	m.set(perLayer, "core.census_checks", float64(lazy.Checks()))

	rng = rand.New(rand.NewSource(o.seed))
	t0 = time.Now()
	for i := 0; i < samples; i++ {
		lazy.At(lazy.RandomIndex(rng))
	}
	m.set(perLayer, "core.at_lazy_ns", float64(time.Since(t0))/float64(samples))
	expansions, evictions, resident := lazy.LazyStats()
	m.set(perLayer, "core.lazy_expansions", float64(expansions))
	m.set(perLayer, "core.lazy_evictions", float64(evictions))
	m.set(perLayer, "core.lazy_resident_bytes", float64(resident))
	return eager, nil
}

// probeKernel times one XgemmDirect evaluation and the layers under it —
// compile, enqueue (VM execution + performance model), the performance
// model alone — on configurations drawn from the eager space.
func probeKernel(o *options, m metrics, space *core.Space) error {
	n := o.scaled(50, 8)
	rng := rand.New(rand.NewSource(o.seed))
	configs := make([]*core.Config, n)
	for i := range configs {
		configs[i] = space.At(space.RandomIndex(rng))
	}
	dev, err := openclDevice("K20m")
	if err != nil {
		return err
	}
	shape := clblast.GemmShape{M: 10, K: 64, N: 500}
	eval := clblast.NewGemmEvaluator(dev, shape, o.seed)

	counters := snapshotCounters()
	oclc.ResetCompileCache()
	run := func(i int) error {
		_, err := eval.Eval(configs[i])
		return err
	}
	cold, err := medianOf(n, run)
	if err != nil {
		return err
	}
	instructions := counters.since("atf_oclc_vm_instructions_total") + counters.since("atf_oclc_vm_vec_instructions_total")
	dispatches := counters.since("atf_oclc_vm_vec_dispatches_total")
	fallbacks := counters.since("atf_oclc_vm_vec_fallbacks_total")
	warm, err := medianOf(n, run)
	if err != nil {
		return err
	}
	m.set(perLayer, "clblast.eval_cold_us", us(cold))
	m.set(perLayer, "clblast.eval_warm_us", us(warm))
	m.set(perLayer, "oclc.vm_instructions_per_eval", instructions/float64(n))
	m.set(perLayer, "oclc.vec_fallback_share", share(fallbacks, dispatches))

	oclc.ResetCompileCache()
	compile := func(i int) error {
		_, err := oclc.CompileCached(clblast.XgemmDirectSource, configs[i].Defines())
		return err
	}
	compileCold, err := medianOf(n, compile)
	if err != nil {
		return err
	}
	compileHit, err := medianOf(n, compile)
	if err != nil {
		return err
	}
	m.set(perLayer, "oclc.compile_cold_us", us(compileCold))
	m.set(perLayer, "oclc.compile_hit_ns", float64(compileHit))

	// Enqueue on pre-built kernels: what is left of an evaluation once
	// the compile is a cache hit and the kernel object exists.
	ctx := opencl.NewContext(dev)
	queue := opencl.NewQueue(ctx)
	a, b, c := ctx.CreateBuffer(int(shape.M*shape.K)), ctx.CreateBuffer(int(shape.K*shape.N)), ctx.CreateBuffer(int(shape.M*shape.N))
	a.FillRandom(o.seed)
	b.FillRandom(o.seed + 1)
	var enqueue, estimate []float64
	for _, cfg := range configs {
		prog := ctx.CreateProgram(clblast.XgemmDirectSource)
		if err := prog.Build(cfg.Defines()); err != nil {
			return err
		}
		k, err := prog.CreateKernel("XgemmDirect")
		if err != nil {
			return err
		}
		if err := k.SetArgs(int32(shape.M), int32(shape.N), int32(shape.K), float32(1), float32(0), a, b, c); err != nil {
			return err
		}
		global, local := clblast.GlobalLocalSize(cfg, shape)
		t0 := time.Now()
		ev, err := queue.EnqueueNDRange(k, global[:], local[:])
		enqueue = append(enqueue, float64(time.Since(t0)))
		if err != nil {
			return err
		}
		model := &perfmodel.Model{Dev: dev.Desc, Jitter: queue.Jitter}
		launch := oclc.NDRange2D(global[0], global[1], local[0], local[1])
		t0 = time.Now()
		if _, err := model.EstimateLaunch(launch, ev.Exec, prog.BuildOptions()); err != nil {
			return err
		}
		estimate = append(estimate, float64(time.Since(t0)))
	}
	m.set(perLayer, "opencl.enqueue_us", us(time.Duration(median(enqueue))))
	m.set(perLayer, "perfmodel.estimate_us", us(time.Duration(median(estimate))))
	return nil
}

// probeSpec is the representative daemon session the server probes use.
func probeSpec(o *options) *atf.Spec {
	return exprSpec("probe", tenantBaseEnd, divides, uint64(o.scaled(500, 20)), o.seed)
}

// appendProbe times Journal.Append (encode + write + fsync) of one
// representative evaluation record of spec, appended the way
// Session.onEvaluation appends it, to a journal in a directory of its own
// under parent; it returns the median of n appends.
func appendProbe(parent string, spec *atf.Spec, n int) (time.Duration, error) {
	history, err := runControl(spec)
	if err != nil {
		return 0, err
	}
	ev := history[len(history)/2]
	rec := server.Record{Type: "eval", Eval: &server.EvalRecord{
		Index: ev.Index, Key: ev.Config.Key(), Config: ev.Config, Cost: ev.Cost, AtNs: ev.At.Nanoseconds(),
	}}
	dir, err := os.MkdirTemp(parent, "probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := server.CreateJournal(filepath.Join(dir, "append.jsonl"), "append", "append", spec, time.Now().UnixNano())
	if err != nil {
		return 0, err
	}
	defer j.Close()
	return medianOf(n, func(int) error { return j.Append(rec) })
}

// probeServer times the server package's public pieces in isolation: spec
// build, Journal.Append, ReadSessionJournal, an NDJSON replay of a
// finished session and a /metrics scrape, on an idle daemon of its own.
func probeServer(o *options, m metrics) error {
	spec := probeSpec(o)
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	build, err := medianOf(o.scaled(2000, 50), func(int) error {
		_, err := atf.ParseSpec(data)
		return err
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "atf.spec_build_us", us(build))

	dir, err := os.MkdirTemp(o.journalRoot, journalPrefix+"probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Journal.Append on the filesystem the daemon workloads journal to,
	// and on the checkout's disk — what a journal directory on a real disk
	// adds to every evaluation.
	onJournalFS, err := appendProbe(dir, spec, o.scaled(1000, 50))
	if err != nil {
		return err
	}
	onDisk, err := appendProbe(o.outDir, spec, o.scaled(400, 20))
	if err != nil {
		return err
	}
	m.set(perLayer, "server.journal_append_us", us(onJournalFS))
	m.set(perLayer, "server.journal_append_disk_us", us(onDisk))

	// One whole session on an idle daemon, then its journal and stream.
	d, err := startDaemon(filepath.Join(dir, "journals"), 0, 0, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	api := client.New(d.base)
	c := &tenantClient{api: api}
	done := c.runSession(nil, nil, job{spec: spec})
	if done.err != nil {
		return done.err
	}
	sessions := d.mgr.List()
	if len(sessions) != 1 {
		return fmt.Errorf("probe daemon holds %d sessions, want 1", len(sessions))
	}
	id := sessions[0].ID
	journal := filepath.Join(d.mgr.Dir(), id+".jsonl")
	raw, err := os.ReadFile(journal)
	if err != nil {
		return err
	}
	// Every line but the spec header and the done record belongs to an
	// evaluation: its eval record and, on the daemon's batch engine, its
	// batch mark.
	lines := bytes.Count(raw, []byte("\n"))
	m.set(perLayer, "server.journal_records_per_eval", float64(lines-2)/float64(done.evals))
	m.set(perLayer, "server.journal_bytes_per_eval", float64(len(raw))/float64(done.evals))
	read, err := medianOf(5, func(int) error {
		_, err := server.ReadSessionJournal(journal)
		return err
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "server.journal_read_ms", ms(read))

	replay, err := medianOf(5, func(int) error {
		n := uint64(0)
		err := api.Evaluations(context.Background(), id, 0, func(server.EvalRecord) bool { n++; return true })
		if err == nil && n != done.evals {
			err = fmt.Errorf("replay streamed %d of %d records", n, done.evals)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "server.stream_records_per_s", float64(done.evals)/replay.Seconds())

	scrape, err := medianOf(5, func(int) error {
		resp, err := http.Get(api.Base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		if !bytes.Contains(buf.Bytes(), []byte("atf_evaluations_total")) {
			return fmt.Errorf("/metrics lacks atf_evaluations_total")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "obs.scrape_ms", ms(scrape))
	return nil
}

// probeState times the warm-start store on a blob the size of a large
// census snapshot.
func probeState(o *options, m metrics) error {
	dir, err := os.MkdirTemp(o.outDir, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := state.Open(dir)
	if err != nil {
		return err
	}
	blob := make([]byte, o.scaled(8<<20, 64<<10))
	rand.New(rand.NewSource(o.seed)).Read(blob)
	save, err := medianOf(3, func(int) error { return store.Save("blob", blob) })
	if err != nil {
		return err
	}
	load, err := medianOf(3, func(int) error {
		if got, ok := store.Load("blob"); !ok || !bytes.Equal(got, blob) {
			return fmt.Errorf("state: loaded blob differs from the saved one")
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set(perLayer, "state.save_ms", ms(save))
	m.set(perLayer, "state.load_ms", ms(load))
	return nil
}
