package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atf"
	"atf/internal/dist"
	"atf/internal/obs"
	"atf/internal/oclc"
	"atf/internal/server"
	"atf/internal/server/client"
)

// traceHooks are the wrappers a traced run installs on the daemon's
// public seams — Manager.Evaluator, dist.Options.HTTPClient and the
// worker's http.Handler. They are installed when the daemon starts and
// switched on for the traced pass only; the end-to-end run (-trace 0)
// installs none.
type traceHooks struct {
	cur atomic.Pointer[tracer]
	// session is the tracer key of the session in flight, for the two
	// seams that are not told which session they serve. Only the
	// single-client fleet workload has traffic on them.
	session atomic.Pointer[string]

	mu        sync.Mutex
	reqBytes  int64
	respBytes int64
}

func (h *traceHooks) tracer() *tracer {
	if h == nil {
		return nil
	}
	return h.cur.Load()
}

func (h *traceHooks) currentSession() string {
	if s := h.session.Load(); s != nil {
		return *s
	}
	return ""
}

// sessionKey recovers the spec name from a server session id
// ("<sanitized name>-<random suffix>"): the benchmark names every spec
// uniquely and uses that name as the tracer's session key.
func sessionKey(id string) string {
	if i := strings.LastIndexByte(id, '-'); i > 0 {
		return id[:i]
	}
	return id
}

// tracedEvaluator times the Manager.Evaluator seam.
type tracedEvaluator struct {
	inner atf.BatchEvaluator
	hooks *traceHooks
	key   string
}

func (e *tracedEvaluator) EvaluateBatch(ctx context.Context, index uint64, batch []*atf.Config) ([]atf.Outcome, error) {
	sp := e.hooks.tracer().span(e.key, "dist.evaluate_batch", "server.stream")
	s := sp.enter()
	out, err := e.inner.EvaluateBatch(ctx, index, batch)
	sp.exit(s)
	return out, err
}

func (e *tracedEvaluator) Close() error {
	if c, ok := e.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// countingTransport is the dist.Options.HTTPClient seam: it times each
// dispatch round trip (to the end of the response stream) and counts the
// bytes either way.
type countingTransport struct {
	inner http.RoundTripper
	hooks *traceHooks
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.hooks.tracer()
	if tr == nil {
		return t.inner.RoundTrip(req)
	}
	sp := tr.span(t.hooks.currentSession(), "dist.wire", "dist.evaluate_batch")
	s := sp.enter()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		sp.exit(s)
		return resp, err
	}
	t.hooks.mu.Lock()
	t.hooks.reqBytes += req.ContentLength
	t.hooks.mu.Unlock()
	resp.Body = &countingBody{ReadCloser: resp.Body, hooks: t.hooks, sp: sp, start: s}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	hooks *traceHooks
	sp    *span
	start int64
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.hooks.mu.Lock()
	b.hooks.respBytes += int64(n)
	b.hooks.mu.Unlock()
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.sp.exit(b.start) })
	return b.ReadCloser.Close()
}

// fleetWorker is one in-process eval worker on its own loopback
// listener, registered through dist.RunHeartbeat like cmd/atf-worker.
type fleetWorker struct {
	ws     *dist.WorkerServer
	srv    *http.Server
	cancel context.CancelFunc
	done   chan struct{}
}

func (w *fleetWorker) stop() {
	w.cancel()
	<-w.done
	w.srv.Close()
	w.ws.Close()
}

// daemon is atfd in this process: server.Manager + server.API +
// dist.Fleet wired exactly as cmd/atfd/main.go wires them with its
// default flag values, served on a loopback TCP listener.
type daemon struct {
	mgr     *server.Manager
	fleet   *dist.Fleet
	srv     *http.Server
	base    string
	dir     string
	workers []*fleetWorker
	hooks   *traceHooks
}

func startDaemon(dir string, workers, workerParallelism int, hooks *traceHooks) (*daemon, error) {
	oclc.SetCompileCacheBudget(oclc.DefaultCompileCacheBudget)
	m, err := server.NewManager(dir)
	if err != nil {
		return nil, err
	}
	// cmd/atfd's defaults.
	m.MaxSpaceBytes = 256 << 20
	m.SharedCostCacheBytes = 64 << 20
	m.SpaceCacheEntries = 64
	m.RotateBytes = 64 << 20
	m.Pipeline = true

	fopts := dist.Options{Heartbeat: 2 * time.Second, StragglerAfter: 10 * time.Second}
	if hooks != nil {
		fopts.HTTPClient = &http.Client{Transport: &countingTransport{inner: http.DefaultTransport, hooks: hooks}}
	}
	fleet := dist.NewFleet(fopts)
	m.Evaluator = fleet.SessionEvaluator
	if hooks != nil {
		m.Evaluator = func(session string, spec *atf.Spec, local atf.CostFunction, replay map[string]atf.Outcome) atf.BatchEvaluator {
			key := sessionKey(session)
			// The local cost chain as the evaluator seam sees it: shared
			// outcome cache, eval slot, cost function.
			local = &tracedCost{inner: local, span: func() *span {
				return hooks.tracer().span(key, "server.cost", "dist.evaluate_batch")
			}}
			return &tracedEvaluator{inner: fleet.SessionEvaluator(session, spec, local, replay), hooks: hooks, key: key}
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	top := http.NewServeMux()
	top.Handle("/v1/workers", fleet.Handler())
	top.Handle("/v1/workers/", fleet.Handler())
	top.Handle("/", (&server.API{Manager: m}).Handler())
	d := &daemon{
		mgr: m, fleet: fleet, dir: dir, hooks: hooks,
		srv:  &http.Server{Handler: top},
		base: "http://" + ln.Addr().String(),
	}
	go d.srv.Serve(ln)

	for i := 0; i < workers; i++ {
		w, err := d.startWorker(fmt.Sprintf("w%d", i), workerParallelism)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.workers = append(d.workers, w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(fleet.Registry().Live()) < workers {
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("only %d of %d workers registered", len(fleet.Registry().Live()), workers)
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

func (d *daemon) startWorker(name string, parallelism int) (*fleetWorker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := dist.NewWorkerServer(dist.WorkerOptions{Name: name, Parallelism: parallelism})
	handler := ws.Handler()
	if hooks := d.hooks; hooks != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sp := hooks.tracer().span(hooks.currentSession(), "dist.worker_handler", "dist.wire")
			s := sp.enter()
			inner.ServeHTTP(w, r)
			sp.exit(s)
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleetWorker{ws: ws, srv: &http.Server{Handler: handler}, cancel: cancel, done: make(chan struct{})}
	go w.srv.Serve(ln)
	go func() {
		defer close(w.done)
		dist.RunHeartbeat(ctx, nil, d.base, dist.RegisterRequest{Name: name, URL: "http://" + ln.Addr().String()}, nil)
	}()
	return w, nil
}

// stop shuts the daemon down the way atfd does and removes its journals.
func (d *daemon) stop() {
	for _, w := range d.workers {
		w.stop()
	}
	d.srv.Close()
	d.mgr.Shutdown()
	os.RemoveAll(d.dir)
}

// tenantClient is one closed-loop client with its own connection pool.
type tenantClient struct {
	api *client.Client
}

func newTenantClient(base string) *tenantClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	return &tenantClient{api: &client.Client{Base: base, HTTP: &http.Client{Transport: tr}}}
}

func (c *tenantClient) close() {
	c.api.HTTP.Transport.(*http.Transport).CloseIdleConnections()
}

// job is one session to submit.
type job struct {
	spec    *atf.Spec
	cold    bool // a never-seen spec
	control bool // compare the stream with an in-process control run
}

// served is one finished session.
type served struct {
	sessionResult
	create, status time.Duration
	evals          uint64
	stream         []byte // control sessions: the streamed (config, cost) sequence
	err            error
}

// runSession submits one session and follows it to its result: Create,
// stream Evaluations to the end of the stream, confirm with Status.
func (c *tenantClient) runSession(tr *tracer, hooks *traceHooks, j job) served {
	ctx := context.Background()
	key := j.spec.Name
	if hooks != nil {
		hooks.session.Store(&key)
	}
	root := tr.span(key, rootSpan, "")
	var out served
	out.cold = j.cold
	start := time.Now()
	r0 := root.enter()
	defer root.exit(r0)

	sp := tr.span(key, "server.create", rootSpan)
	s := sp.enter()
	st, err := c.api.Create(ctx, j.spec)
	sp.exit(s)
	out.create = time.Since(start)
	if err != nil {
		out.err = fmt.Errorf("create %s: %w", key, err)
		return out
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	n := uint64(0)
	sp = tr.span(key, "server.stream", rootSpan)
	s = sp.enter()
	err = c.api.Evaluations(ctx, st.ID, 0, func(rec server.EvalRecord) bool {
		if n == 0 {
			out.ttfe = time.Since(start)
		}
		n++
		if j.control {
			enc.Encode(rec.Config)
			enc.Encode(rec.Cost)
		}
		return true
	})
	sp.exit(s)
	if err != nil {
		out.err = fmt.Errorf("stream %s: %w", key, err)
		return out
	}

	sp = tr.span(key, "server.status", rootSpan)
	s = sp.enter()
	t0 := time.Now()
	fin, err := c.api.Status(ctx, st.ID)
	out.status = time.Since(t0)
	sp.exit(s)
	out.wall = time.Since(start)
	out.evals = n
	out.stream = buf.Bytes()
	switch want := j.spec.Abort.Evaluations; {
	case err != nil:
		out.err = fmt.Errorf("status %s: %w", key, err)
	case fin.State != server.StateDone:
		out.err = fmt.Errorf("session %s ended %q (%s)", key, fin.State, fin.Error)
	case fin.Evaluations != want || n != want:
		out.err = fmt.Errorf("session %s: %d evaluations committed, %d streamed, budget %d", key, fin.Evaluations, n, want)
	case fin.Divergence != "":
		out.err = fmt.Errorf("session %s diverged: %s", key, fin.Divergence)
	}
	return out
}

// checkControl re-runs a control session's spec in process and compares
// the (configuration, cost) sequences byte for byte — the repository's
// bit-identity guarantee. The control runs without the evaluation delay:
// the delay changes when a cost is known, not what it is.
func checkControl(j job, stream []byte) error {
	spec := *j.spec
	spec.Cost.DelayNs = 0
	history, err := runControl(&spec)
	if err != nil {
		return fmt.Errorf("control run of %s: %w", j.spec.Name, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range history {
		enc.Encode(ev.Config)
		enc.Encode(ev.Cost)
	}
	if !bytes.Equal(buf.Bytes(), stream) {
		return fmt.Errorf("session %s: streamed (config, cost) sequence differs from the in-process control run", j.spec.Name)
	}
	return nil
}

// serve runs the jobs closed-loop over the clients — each client submits
// its next session only after its previous one finished — and folds the
// outcomes into a pass result. The control runs are left in the result's after list, for the
// caller to run once it has read its clocks.
func serve(clients []*tenantClient, tr *tracer, hooks *traceHooks, jobs []job) (passResult, []served) {
	results := make([]served, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *tenantClient) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = c.runSession(tr, hooks, jobs[i])
			}
		}(c)
	}
	wg.Wait()
	p := passResult{rate: time.Since(start), ops: len(jobs)}
	for i, r := range results {
		if r.err != nil {
			p.failed = append(p.failed, r.err.Error())
			continue
		}
		p.evals += r.evals
		p.sessions = append(p.sessions, r.sessionResult)
		if jobs[i].control {
			j, stream := jobs[i], r.stream
			p.after = append(p.after, func() error { return checkControl(j, stream) })
		}
	}
	return p, results
}

// exprSpec is the daemon workloads' synthetic spec: two parameters, the
// second constrained by the first, and an integer expression as cost.
func exprSpec(name string, end int64, constraint atf.ConstraintSpec, evals uint64, seed int64) *atf.Spec {
	interval := atf.RangeSpec{Interval: &atf.IntervalSpec{Begin: 1, End: end}}
	return &atf.Spec{
		Name: name,
		Parameters: []atf.ParamSpec{
			{Name: "A", Range: interval},
			{Name: "B", Range: interval, Constraints: []atf.ConstraintSpec{constraint}},
		},
		Cost:      atf.CostSpec{Kind: "expr", Expr: "(A - 37) * (A - 37) + B"},
		Technique: atf.TechniqueSpec{Kind: "random"},
		Abort:     atf.AbortSpec{Evaluations: evals},
		Seed:      seed,
	}
}

// counterDelta reads the process-wide counters the daemon layers keep.
type counterDelta struct{ before obs.Snapshot }

func snapshotCounters() counterDelta { return counterDelta{before: obs.Default().Snapshot()} }

func (c counterDelta) since(name string) float64 {
	now := obs.Default().Snapshot()
	return float64(now.Counter(name).Value - c.before.Counter(name).Value)
}

func share(hit, miss float64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// ---- atfd-tenants ------------------------------------------------------

const (
	tenantClients = 2  // at most nproc client connections on a 2-core machine
	tenantBases   = 8  // already-seen specs that 75 % of sessions re-submit
	controlEvery  = 20 // every 20th session is checked against a control run
	// Base specs span A, B <= 128 .. 240 (640 to 1,350 configurations
	// each), so the warm-up's 40 sessions of 500 evaluations fill the
	// shared outcome cache and the timed passes see a daemon in steady
	// state; never-seen specs start beyond them.
	tenantBaseEnd  = 128
	tenantColdFrom = 256
)

type tenants struct {
	d       *daemon
	clients []*tenantClient
	rng     *rand.Rand
	evals   uint64
	perPass int
	warm    int
	traced  int
	next    int // sessions generated so far
	cold    int // never-seen specs generated so far

	last     []served // the most recent pass's sessions
	lastJobs []job
	delta    counterDelta
}

func setupTenants(o *options) (instance, error) {
	var hooks *traceHooks
	if o.trace {
		hooks = &traceHooks{}
	}
	dir, err := os.MkdirTemp(o.journalRoot, journalPrefix+"journal-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, 0, 0, hooks)
	if err != nil {
		return nil, err
	}
	t := &tenants{
		d:       d,
		rng:     rand.New(rand.NewSource(o.seed)),
		evals:   uint64(o.scaled(tenantEvals, 20)),
		perPass: o.scaled(tenantPerPass, 8),
		warm:    o.scaled(40, tenantBases),
		traced:  o.scaled(50, 8),
	}
	for i := 0; i < tenantClients; i++ {
		t.clients = append(t.clients, newTenantClient(d.base))
	}
	return t, nil
}

var divides = atf.ConstraintSpec{Op: "divides", Expr: "A"}

// jobs draws the next n sessions of the seeded mix: the first
// tenantBases sessions introduce the base specs, after that 75 % re-submit
// one of them (space-cache and shared-outcome hits) and 25 % submit a spec
// no session has used (its range end is new), so the median session is
// the warm path and the tail the cold one.
func (t *tenants) jobs(n int) []job {
	out := make([]job, n)
	for i := range out {
		idx := t.next
		t.next++
		j := job{control: idx%controlEvery == 0}
		var end int64
		switch {
		case idx < tenantBases:
			end, j.cold = tenantBaseEnd+16*int64(idx), true
		case t.rng.Intn(4) == 0:
			end, j.cold = tenantColdFrom+int64(t.cold), true
			t.cold++
		default:
			end = tenantBaseEnd + 16*int64(t.rng.Intn(tenantBases))
		}
		j.spec = exprSpec(fmt.Sprintf("t%d", idx), end, divides, t.evals, t.rng.Int63())
		out[i] = j
	}
	return out
}

func (t *tenants) run(n int, tr *tracer) (passResult, error) {
	if t.d.hooks != nil {
		t.d.hooks.cur.Store(tr)
		defer t.d.hooks.cur.Store(nil)
	}
	t.delta = snapshotCounters()
	var p passResult
	p, t.last = serve(t.clients, tr, t.d.hooks, t.jobs(n))
	return p, nil
}

func (t *tenants) warmup() (passResult, error) { return t.run(t.warm, nil) }

// pass runs perPass sessions; in a traced run both the untraced reference
// pass and the traced pass run the shorter traced count, so that their
// session times compare like with like.
func (t *tenants) pass(i int, tr *tracer) (passResult, error) {
	if t.d.hooks != nil {
		return t.run(t.traced, tr)
	}
	return t.run(t.perPass, nil)
}

// daemonLayers reports what the clients of the most recent pass saw.
func daemonLayers(m metrics, last []served, delta counterDelta) {
	var create, status, warm, cold, all []float64
	for _, s := range last {
		if s.err != nil {
			continue
		}
		create = append(create, ms(s.create))
		status = append(status, float64(s.status.Microseconds()))
		all = append(all, ms(s.wall))
		if s.cold {
			cold = append(cold, ms(s.wall))
		} else {
			warm = append(warm, ms(s.wall))
		}
	}
	m.set(perLayer, "server.create_ms", median(create))
	m.set(perLayer, "server.status_us", median(status))
	m.set(perLayer, "server.session_warm_p50_ms", median(warm))
	m.set(perLayer, "server.session_cold_p50_ms", median(cold))
	m.set(perLayer, "server.session_p98_ms", quantile(sortedCopy(all), 0.98))
	m.set(perLayer, "server.shared_cost_hit_share",
		share(delta.since("atf_server_cost_cache_hits_total"), delta.since("atf_server_cost_cache_misses_total")))
	m.set(perLayer, "server.space_cache_hit_share",
		share(delta.since("atf_server_space_cache_hits_total"), delta.since("atf_server_space_cache_misses_total")))
	m.set(perLayer, "server.rejected_429", delta.since("atf_server_sessions_rejected_total"))
	now := obs.Default().Snapshot().Histogram("atf_server_eval_slot_wait_seconds")
	was := delta.before.Histogram("atf_server_eval_slot_wait_seconds")
	if n := now.Count - was.Count; n > 0 {
		m.set(perLayer, "server.eval_slot_wait_us", (now.Sum-was.Sum)*1e6/float64(n))
	}
}

func (t *tenants) layers(m metrics, _, _ passResult, _ traceSummary) {
	daemonLayers(m, t.last, t.delta)
}

func (t *tenants) close() {
	for _, c := range t.clients {
		c.close()
	}
	t.d.stop()
}

// ---- fleet-latency -----------------------------------------------------

const (
	fleetWorkers           = 2
	fleetWorkerParallelism = 4
	fleetLanes             = fleetWorkers * fleetWorkerParallelism
	fleetPerPass           = 10 // sessions per timed pass
	fleetWarm              = 2  // sessions of the warm-up
	// Every session's space is A, B <= 142 with one diagonal struck out:
	// about 20,000 configurations, 33 times the budget, so generation stays
	// a small share of time-to-first-evaluation and hardly any cache
	// answers for the device.
	fleetEnd = 142
)

type fleetLatency struct {
	d       *daemon
	client  *tenantClient
	evals   uint64
	end     int64
	warm    int
	perPass int
	delay   time.Duration
	seed    int64
	next    int

	last  []served
	delta counterDelta
}

func setupFleetLatency(o *options) (instance, error) {
	var hooks *traceHooks
	if o.trace {
		hooks = &traceHooks{}
	}
	dir, err := os.MkdirTemp(o.journalRoot, journalPrefix+"journal-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, fleetWorkers, fleetWorkerParallelism, hooks)
	if err != nil {
		return nil, err
	}
	return &fleetLatency{
		d:       d,
		client:  newTenantClient(d.base),
		evals:   uint64(o.scaled(fleetEvals, 64)),
		end:     int64(o.scaled(fleetEnd, 32)),
		warm:    o.scaled(fleetWarm, 1),
		perPass: o.scaled(fleetPerPass, 2),
		delay:   fleetDelay,
		seed:    o.seed,
	}, nil
}

// run is n sessions, one after the other: an expr spec whose evaluation
// sleeps (an off-CPU device), random search pipelined over 8 lanes. Every
// spec is distinct — session idx strikes out the diagonal B = A + idx — so
// no cache answers for another session, and every space has the same size
// within half a percent, so no session generates more than another.
func (f *fleetLatency) run(n int, tr *tracer) (passResult, error) {
	if f.d.hooks != nil {
		f.d.hooks.cur.Store(tr)
		defer f.d.hooks.cur.Store(nil)
	}
	jobs := make([]job, n)
	for i := range jobs {
		idx := f.next
		f.next++
		spec := exprSpec(fmt.Sprintf("f%d", idx), f.end,
			atf.ConstraintSpec{Op: "unequal", Expr: fmt.Sprintf("A + %d", idx)}, f.evals, f.seed*1000003+int64(idx)+1)
		spec.Cost.DelayNs = int64(f.delay)
		spec.Parallelism = fleetLanes
		jobs[i] = job{spec: spec, cold: true, control: idx%controlEvery == 0}
	}
	f.delta = snapshotCounters()
	var p passResult
	p, f.last = serve([]*tenantClient{f.client}, tr, f.d.hooks, jobs)
	return p, nil
}

func (f *fleetLatency) warmup() (passResult, error) { return f.run(f.warm, nil) }

func (f *fleetLatency) pass(_ int, tr *tracer) (passResult, error) {
	return f.run(f.perPass, tr)
}

func (f *fleetLatency) layers(m metrics, untraced, traced passResult, sum traceSummary) {
	daemonLayers(m, f.last, f.delta)
	ideal := float64(fleetLanes) / f.delay.Seconds()
	m.set(perLayer, "dist.lane_efficiency", float64(untraced.evals)/untraced.rate.Seconds()/ideal)
	evals := float64(traced.evals)
	if n := sum.calls("dist.evaluate_batch"); n > 0 {
		rtt := (sum.selfMs("dist.evaluate_batch") + sum.selfMs("dist.wire") + sum.selfMs("dist.worker_handler")) / float64(n)
		handler := sum.selfMs("dist.worker_handler") / float64(n)
		m.set(perLayer, "dist.batch_rtt_ms", rtt)
		m.set(perLayer, "dist.worker_handler_ms", handler)
		m.set(perLayer, "dist.wire_ms", rtt-handler)
	}
	h := f.d.hooks
	h.mu.Lock()
	m.set(perLayer, "dist.request_bytes_per_eval", float64(h.reqBytes)/evals)
	m.set(perLayer, "dist.response_bytes_per_eval", float64(h.respBytes)/evals)
	h.mu.Unlock()
	// The rest of the evaluations are repeated configurations, which the
	// session's outcome cache answers without a dispatch.
	m.set(perLayer, "dist.remote_share", f.delta.since("atf_dist_remote_evals_total")/evals)
	m.set(perLayer, "dist.local_fallback_evals", float64(sum.calls("server.cost")))
	m.set(perLayer, "dist.redispatched_partitions", f.delta.since("atf_dist_partitions_redispatched_total"))
}

func (f *fleetLatency) close() {
	f.client.close()
	f.d.stop()
}
