// Package trace is the serving benchmark's traced run. It replays a
// workload's seeded request stream against an in-process server built
// with server.New(...).Handler() over loopback, and after each request
// calls each layer's public function on the same input, recording one
// span per layer. A layer's self time is its span minus the span of the
// layer below it for the same request.
//
// The spans wrap calls made from this package; the program itself
// carries no instrumentation. The functions called are listed in
// servebench/README.md: a change to any of them needs a benchmark
// change first.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/histo2d"
	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/ingest"
	"github.com/dphist/dphist/internal/journal"
	"github.com/dphist/dphist/internal/plan"
	"github.com/dphist/dphist/internal/server"
	"github.com/dphist/dphist/servebench/bench"
)

// Span is one timed call, in ns since the run started.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index into the span list, -1 at the root
	Req    int    `json:"req"`
}

// Config is one traced run.
type Config struct {
	Workload string
	Seed     uint64
	// Seconds is split between the traced replay and an untraced replay
	// of the same stream, whose difference is the tracing overhead.
	Seconds float64
	Scratch string
	// SpanFile receives every span as JSON lines at the end.
	SpanFile string
}

// Result is the traced run's per-layer metrics plus its own end-to-end
// figures.
type Result struct {
	Metrics   map[string]bench.Metric
	Attempted int
	Failed    int
	// Traced and Untraced are the replay's query latencies (ms) with and
	// without the layer calls.
	Traced, Untraced bench.Summary
}

// Layers are the per-layer metrics the traced run reports, in
// BENCHMARK.json order. The gen.* and qcache.* figures come from the
// untraced timed run that precedes the replay.
var Layers = []bench.MetricSpec{
	{Name: "http.self_us", Unit: "us"},
	{Name: "server.query.self_us", Unit: "us"},
	{Name: "server.query.allocs", Unit: "count"},
	{Name: "server.query.ns_per_spec", Unit: "ns"},
	{Name: "server.mint.self_us", Unit: "us"},
	{Name: "server.ingest.self_us", Unit: "us"},
	{Name: "store.query.self_ns", Unit: "ns"},
	{Name: "store.mint.self_us", Unit: "us"},
	{Name: "qcache.hit_ratio", Unit: "ratio"},
	{Name: "query.ns_per_spec", Unit: "ns"},
	{Name: "plan.prefix.ns_per_spec", Unit: "ns"},
	{Name: "plan.tree-offset.ns_per_spec", Unit: "ns"},
	{Name: "plan.sat.ns_per_spec", Unit: "ns"},
	{Name: "plan.quadtree-offset.ns_per_spec", Unit: "ns"},
	{Name: "plan.compile_us", Unit: "us"},
	{Name: "advisor.resolve_ms", Unit: "ms"},
	{Name: "session.release_us", Unit: "us"},
	{Name: "core.noise_us", Unit: "us"},
	{Name: "core.infer_us", Unit: "us"},
	{Name: "core.universal.rmse", Unit: "count"},
	{Name: "core.laplace.rmse", Unit: "count"},
	{Name: "core.unattributed.rmse", Unit: "count"},
	{Name: "core.wavelet.rmse", Unit: "count"},
	{Name: "core.universal2d.rmse", Unit: "count"},
	{Name: "encode.release_us", Unit: "us"},
	{Name: "encode.release_kb", Unit: "KiB"},
	{Name: "journal.append_us", Unit: "us"},
	{Name: "journal.snapshot_ms", Unit: "ms"},
	{Name: "persist.recover_ms", Unit: "ms"},
	{Name: "ingest.batch_us", Unit: "us"},
	{Name: "ingest.flush_ms", Unit: "ms"},
	{Name: "gen.lateness_p50_us", Unit: "us"},
	{Name: "gen.lateness_p99_us", Unit: "us"},
	{Name: "gen.conn_wait_p99_us", Unit: "us"},
	{Name: "gen.backlog_max", Unit: "count"},
}

type tracer struct {
	cfg    Config
	t0     time.Time
	spans  []Span
	req    int
	server atomic.Pointer[Span] // the wrapper's span of the request in flight

	counts []float64
	cells  [][]float64
	flat   []float64
	rp     *bench.Replay
	store  *dphist.Store // served by the in-process server
	side   *dphist.Store // direct Namespace.Mint calls, same durability
	mech   *dphist.Mechanism
	ing    *ingest.Ingester
	jnl    *journal.Journal
	plans  map[string]*plan.Plan
	h      http.Handler // the server's own handler, unwrapped
	conn   *bench.Conn
	minted []bench.Minted
	// samples collects each metric's per-call values.
	samples map[string][]float64
	fails   int
	sent    int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name string, start, end int64, parent int) int {
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) sample(name string, v float64) {
	t.samples[name] = append(t.samples[name], v)
}

// timed runs f and returns its start and end.
func (t *tracer) timed(f func()) (int64, int64) {
	s := t.now()
	f()
	return s, t.now()
}

// Run executes the traced replay.
func Run(cfg Config) (Result, error) {
	rp, ok := bench.NewReplay(cfg.Workload, cfg.Seed)
	if !ok {
		return Result{}, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	_, counts := bench.DatasetFor(cfg.Workload, cfg.Seed)
	t := &tracer{cfg: cfg, t0: time.Now(), rp: rp, counts: counts, samples: map[string][]float64{}}
	t.cells, t.flat = reshape(counts, rp.Grid)
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(cfg.Scratch)
	stop, err := t.start()
	if err != nil {
		return Result{}, err
	}
	defer stop()

	for _, req := range rp.Setup {
		t.traced(req)
	}
	if err := t.persistence(); err != nil {
		return Result{}, err
	}
	accuracy := t.accuracyMints()
	half := time.Duration(cfg.Seconds * float64(time.Second) / 2)
	var res Result
	var untraced []float64
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		req := rp.Next()
		s := time.Now()
		ok := t.send(req)
		if req.Query != nil && ok {
			untraced = append(untraced, time.Since(s).Seconds()*1e3)
		}
	}
	for deadline := time.Now().Add(half); time.Now().Before(deadline); {
		t.traced(rp.Next())
	}
	res.Untraced = bench.Summarize(untraced)
	res.Traced = bench.Summarize(slices.Clone(t.samples["e2e.query_ms"]))
	res.Metrics = t.metrics(accuracy)
	res.Attempted, res.Failed = t.sent, t.fails
	return res, t.writeSpans()
}

// start builds the in-process deployment: store, ingester and server
// over a loopback listener, plus the side store, scratch journal and
// the benchmark's own compiled plans.
func (t *tracer) start() (func(), error) {
	var closers []func()
	stop := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	fail := func(err error) (func(), error) {
		stop()
		return nil, err
	}
	var err error
	if t.rp.Durable {
		t.store, err = dphist.OpenStore(filepath.Join(t.cfg.Scratch, "data"), dphist.WithBudget(bench.Budget))
		if err == nil {
			t.side, err = dphist.OpenStore(filepath.Join(t.cfg.Scratch, "side"), dphist.WithBudget(bench.Budget))
		}
	} else {
		t.store = dphist.NewStore(dphist.WithBudget(bench.Budget))
		t.side = dphist.NewStore(dphist.WithBudget(bench.Budget))
	}
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { _ = t.store.Close(); _ = t.side.Close() })
	t.mech, err = dphist.New(dphist.WithSeed(t.cfg.Seed))
	if err != nil {
		return fail(err)
	}
	// The epoch never ticks during the replay: Flush is called, and
	// timed, by the replay itself.
	t.ing, err = ingest.New(ingest.Config{Store: t.store, Mechanism: t.mech, Domain: t.rp.Domain,
		Epoch: time.Hour, Epsilon: 0.125, Shards: 4})
	if err != nil {
		return fail(err)
	}
	t.ing.Start()
	closers = append(closers, func() { _ = t.ing.Close() })
	t.jnl, err = journal.Open(filepath.Join(t.cfg.Scratch, "scratch.wal"), func(journal.Record) error { return nil })
	if err != nil {
		return fail(err)
	}
	closers = append(closers, func() { _ = t.jnl.Close() })
	srv, err := server.New(server.Config{Counts: t.counts, Cells: t.cells, Budget: bench.Budget, Store: t.store, Ingester: t.ing})
	if err != nil {
		return fail(err)
	}
	t.h = srv.Handler()
	traced := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.now()
		t.h.ServeHTTP(w, r)
		t.server.Store(&Span{Name: "server", Start: s, End: t.now()})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: traced, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l)
	}()
	closers = append(closers, func() { _ = hs.Close(); <-done })
	t.conn = bench.NewConn(l.Addr().String())
	closers = append(closers, t.conn.Close)
	if err := t.compilePlans(); err != nil {
		return fail(err)
	}
	return stop, nil
}

// compilePlans builds one plan per execution mode from the benchmark's
// own releases of the protected counts, the way the mechanism does,
// timing each compile.
func (t *tracer) compilePlans() error {
	src := rand.New(rand.NewPCG(t.cfg.Seed, 0x9a7))
	tree, err := htree.New(2, len(t.counts))
	if err != nil {
		return err
	}
	post := core.InferTree(tree, core.ReleaseTree(tree, t.counts, bench.MintEps, src))
	core.ZeroNegativeSubtrees(tree, post)
	core.RoundNonNegInt(post)
	grid, err := histo2d.New(t.rp.Grid, len(t.cells))
	if err != nil {
		return err
	}
	quad := grid.Infer(grid.Release(t.cells, bench.MintEps, src))
	grid.ZeroNegativeSubtrees(quad)
	core.RoundNonNegInt(quad)
	t.plans = map[string]*plan.Plan{}
	for mode, compile := range map[string]func() *plan.Plan{
		"prefix":          func() *plan.Plan { return plan.Compile1D(t.counts) },
		"tree-offset":     func() *plan.Plan { return plan.CompileTree(tree, post, tree.Leaves(post)) },
		"sat":             func() *plan.Plan { return plan.Compile2D(grid, grid.FromCells(t.cells), t.flat) },
		"quadtree-offset": func() *plan.Plan { return plan.Compile2D(grid, quad, t.flat) },
	} {
		var pl *plan.Plan
		s, e := t.timed(func() { pl = compile() })
		if pl.Mode() != mode {
			return fmt.Errorf("plan compiled for %s runs in mode %s", mode, pl.Mode())
		}
		t.plans[mode] = pl
		t.sample("plan.compile_us", float64(e-s)/1e3)
	}
	return nil
}

// modeOf is the plan mode the server builds for a strategy by default.
func modeOf(strategy string) string {
	switch strategy {
	case "universal":
		return "tree-offset"
	case "universal2d":
		return "quadtree-offset"
	}
	return "prefix"
}

// send issues req without tracing and reports whether it succeeded.
func (t *tracer) send(req *bench.Req) bool {
	t.sent++
	status, body, err := t.conn.Do(http.MethodPost, req.Path, req.Body)
	if err != nil || status/100 != 2 {
		t.fails++
		return false
	}
	if req.Mint != nil {
		t.noteMint(req, body)
	}
	return true
}

// noteMint decodes a mint reply's release for the accuracy figures.
func (t *tracer) noteMint(req *bench.Req, body []byte) {
	var r struct {
		Release json.RawMessage `json:"release"`
	}
	if json.Unmarshal(body, &r) != nil {
		t.fails++
		return
	}
	rel, err := dphist.DecodeRelease(r.Release)
	if err != nil {
		t.fails++
		return
	}
	t.minted = append(t.minted, bench.Minted{Target: req.Mint.Target, Release: rel})
}

// traced sends req over loopback, then replays it against each layer.
func (t *tracer) traced(req *bench.Req) {
	t.req++
	t.server.Store(nil)
	s := t.now()
	ok := t.send(req)
	e := t.now()
	if !ok {
		return
	}
	root := t.add("http", s, e, -1)
	sv := t.server.Load()
	if sv == nil {
		return
	}
	srv := t.add("server", sv.Start, sv.End, root)
	t.sample("http.self_us", float64((e-s)-(sv.End-sv.Start))/1e3)
	switch {
	case req.Query != nil:
		t.sample("e2e.query_ms", float64(e-s)/1e6)
		t.query(req.Query, srv, float64(sv.End-sv.Start))
	case req.Mint != nil:
		t.mint(req.Mint, srv, float64(sv.End-sv.Start))
	default:
		t.ingestBatch(req, srv, float64(sv.End-sv.Start))
	}
}

func (t *tracer) query(q *bench.Query, parent int, serverNs float64) {
	n := float64(q.Specs())
	ns := t.store.Namespace(q.Target.NS)
	rel, entry, ok := ns.Get(q.Target.Name)
	if !ok {
		t.fails++
		return
	}
	var dst []float64
	var storeSpan, querySpan int
	planSpan := -1
	if q.Rects != nil {
		s, e := t.timed(func() { dst, _, _ = ns.QueryRectsInto(dst[:0], q.Target.Name, q.Rects) })
		storeSpan = t.add("store.query", s, e, parent)
		s, e = t.timed(func() { dst, _ = dphist.QueryRectsInto(dst[:0], rel, q.Rects) })
		querySpan = t.add("query", s, e, storeSpan)
		x0, y0, x1, y1 := rectCols(q.Rects)
		for _, mode := range []string{"quadtree-offset", "sat"} {
			s, e = t.timed(func() { t.plans[mode].RectBatchInto(dst[:len(q.Rects)], x0, y0, x1, y1) })
			t.sample("plan."+mode+".ns_per_spec", float64(e-s)/n)
			if mode == modeOf(entry.Strategy.String()) {
				planSpan = t.add("plan."+mode, s, e, querySpan)
			}
		}
	} else {
		s, e := t.timed(func() { dst, _, _ = ns.QueryInto(dst[:0], q.Target.Name, q.Ranges) })
		storeSpan = t.add("store.query", s, e, parent)
		s, e = t.timed(func() { dst, _ = dphist.QueryBatchInto(dst[:0], rel, q.Ranges) })
		querySpan = t.add("query", s, e, storeSpan)
		lo, hi := rangeCols(q.Ranges)
		for _, mode := range []string{"prefix", "tree-offset"} {
			s, e = t.timed(func() { t.plans[mode].RangeBatchInto(dst[:len(q.Ranges)], lo, hi) })
			t.sample("plan."+mode+".ns_per_spec", float64(e-s)/n)
			if mode == modeOf(entry.Strategy.String()) {
				planSpan = t.add("plan."+mode, s, e, querySpan)
			}
		}
	}
	st, qs := t.spans[storeSpan], t.spans[querySpan]
	storeNs, queryNs := float64(st.End-st.Start), float64(qs.End-qs.Start)
	t.sample("server.query.self_us", (serverNs-storeNs)/1e3)
	t.sample("server.query.ns_per_spec", serverNs/n)
	t.sample("store.query.self_ns", storeNs-queryNs)
	if planSpan >= 0 { // the release's plan mode serves this query family
		ps := t.spans[planSpan]
		t.sample("query.ns_per_spec", (queryNs-float64(ps.End-ps.Start))/n)
	}
	if t.req%16 == 0 {
		t.sample("server.query.allocs", t.allocs(q))
	}
}

// allocs counts heap allocations of one in-process ServeHTTP call on q.
func (t *tracer) allocs(q *bench.Query) float64 {
	r, err := http.NewRequest(http.MethodPost, q.Target.QueryPath(), bytes.NewReader(q.Body))
	if err != nil {
		return 0
	}
	w := &discard{h: http.Header{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// discard is a ResponseWriter that keeps nothing, so it allocates
// nothing of its own during the counted call.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// autoExactLeaves is the largest domain the mint path resolves "auto"
// with the advisor's exact predictions.
const autoExactLeaves = 512

// mintRequest is the mint body as the server reads it.
type mintRequest struct {
	Name     string                 `json:"name"`
	Strategy string                 `json:"strategy"`
	Epsilon  float64                `json:"epsilon"`
	Workload *dphist.WorkloadSketch `json:"workload"`
}

func (t *tracer) mint(m *bench.Mint, parent int, serverNs float64) {
	var mr mintRequest
	if err := json.Unmarshal(m.Body, &mr); err != nil {
		t.fails++
		return
	}
	strategy, err := dphist.ParseStrategy(mr.Strategy)
	if err != nil {
		t.fails++
		return
	}
	req := dphist.Request{Strategy: strategy, Epsilon: mr.Epsilon, Workload: mr.Workload}
	if strategy == dphist.StrategyUniversal2D {
		req.Cells = t.cells
	} else {
		req.Counts = t.counts
	}
	if strategy == dphist.StrategyAuto {
		req.Cells = t.cells
		// Recommend predicts exactly up to 2048 leaves, where the mint
		// path switches to a bound past 512; above that it costs hundreds
		// of milliseconds, so it is timed once per run there.
		if len(t.counts) <= autoExactLeaves || t.samples["advisor.resolve_ms"] == nil {
			s, e := t.timed(func() { _, _ = t.recommend(mr) })
			t.sample("advisor.resolve_ms", float64(e-s)/1e6)
		}
	}
	ns := t.side.Namespace(m.Target.NS)
	sess, err := ns.Session(t.mech)
	if err != nil {
		t.fails++
		return
	}
	s, e := t.timed(func() { _, _, err = ns.Mint(sess, m.Target.Name, req) })
	if err != nil {
		t.fails++
		return
	}
	mintSpan := t.add("store.mint", s, e, parent)
	var rel dphist.Release
	s2, e2 := t.timed(func() { rel, err = sess.Release(req) })
	if err != nil {
		t.fails++
		return
	}
	t.add("session.release", s2, e2, mintSpan)
	t.sample("server.mint.self_us", (serverNs-float64(e-s))/1e3)
	t.sample("store.mint.self_us", float64((e-s)-(e2-s2))/1e3)
	t.sample("session.release_us", float64(e2-s2)/1e3)
	t.core(rel.Strategy())
	var raw []byte
	s, e = t.timed(func() { raw, err = json.Marshal(rel) })
	if err != nil {
		t.fails++
		return
	}
	t.sample("encode.release_us", float64(e-s)/1e3)
	t.sample("encode.release_kb", float64(len(raw))/1024)
	// A durable mint journals two records: the budget charge and the put.
	for _, rec := range []journal.Record{
		{Op: journal.OpCharge, Namespace: m.Target.NS, Label: rel.Strategy().String(), Epsilon: mr.Epsilon},
		{Op: journal.OpPut, Namespace: m.Target.NS, Name: m.Target.Name, StoredAt: time.Now(), Payload: raw},
	} {
		s, e = t.timed(func() { _, err = t.jnl.Append(rec) })
		if err != nil {
			t.fails++
			return
		}
		t.sample("journal.append_us", float64(e-s)/1e3)
	}
}

// recommend runs the advisor on an auto mint's sketch.
func (t *tracer) recommend(mr mintRequest) (dphist.Recommendation, error) {
	w, err := dphist.NewWorkload(len(t.counts))
	if err != nil || mr.Workload == nil {
		return dphist.Recommendation{}, err
	}
	for _, r := range mr.Workload.Ranges {
		if err := w.Add(r.Lo, r.Hi, max(r.Weight, 1)); err != nil {
			return dphist.Recommendation{}, err
		}
	}
	return w.Recommend(mr.Epsilon)
}

// core times the noise and inference steps of the strategy's pipeline
// on the protected counts.
func (t *tracer) core(st dphist.Strategy) {
	src := rand.New(rand.NewPCG(t.cfg.Seed, uint64(t.req)))
	var noisy []float64
	switch st {
	case dphist.StrategyUniversal:
		tree, err := htree.New(2, len(t.counts))
		if err != nil {
			return
		}
		s, e := t.timed(func() { noisy = core.ReleaseTree(tree, t.counts, bench.MintEps, src) })
		t.sample("core.noise_us", float64(e-s)/1e3)
		s, e = t.timed(func() { core.InferTree(tree, noisy) })
		t.sample("core.infer_us", float64(e-s)/1e3)
	case dphist.StrategyLaplace:
		s, e := t.timed(func() { core.ReleaseL(t.counts, bench.MintEps, src) })
		t.sample("core.noise_us", float64(e-s)/1e3)
	case dphist.StrategyUnattributed:
		s, e := t.timed(func() { noisy = core.ReleaseSorted(t.counts, bench.MintEps, src) })
		t.sample("core.noise_us", float64(e-s)/1e3)
		s, e = t.timed(func() { core.InferSorted(noisy) })
		t.sample("core.infer_us", float64(e-s)/1e3)
	}
}

func (t *tracer) ingestBatch(req *bench.Req, parent int, serverNs float64) {
	var body struct {
		Events []ingest.Event `json:"events"`
	}
	if err := json.Unmarshal(req.Body, &body); err != nil {
		t.fails++
		return
	}
	var err error
	s, e := t.timed(func() { _, err = t.ing.Ingest(bench.IngestNS, body.Events) })
	if err != nil {
		t.fails++
		return
	}
	t.add("ingest.batch", s, e, parent)
	t.sample("ingest.batch_us", float64(e-s)/1e3)
	t.sample("server.ingest.self_us", (serverNs-float64(e-s))/1e3)
	// Flush at the epoch cadence the workload runs: every 15 batches is
	// one second of write-mixed's ingest stream.
	if len(t.samples["ingest.batch_us"])%15 == 0 {
		s, e = t.timed(func() { _, err = t.ing.Flush() })
		if err != nil {
			t.fails++
			return
		}
		t.sample("ingest.flush_ms", float64(e-s)/1e6)
	}
}

// persistence times snapshots and recovery of a durable store holding
// every release the setup minted.
func (t *tracer) persistence() error {
	dir := filepath.Join(t.cfg.Scratch, "persist")
	st, err := dphist.OpenStore(dir, dphist.WithBudget(bench.Budget))
	if err != nil {
		return err
	}
	for _, m := range t.minted {
		if _, err := st.Namespace(m.Target.NS).Put(m.Target.Name, m.Release); err != nil {
			_ = st.Close()
			return err
		}
	}
	for i := 0; i < 3; i++ {
		s, e := t.timed(func() { err = st.Snapshot() })
		if err != nil {
			_ = st.Close()
			return err
		}
		t.sample("journal.snapshot_ms", float64(e-s)/1e6)
	}
	if err := st.Close(); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		s, e := t.timed(func() { st, err = dphist.OpenStore(dir, dphist.WithBudget(bench.Budget)) })
		if err != nil {
			return err
		}
		t.sample("persist.recover_ms", float64(e-s)/1e6)
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// accuracyStrategies are the strategies core.<strategy>.rmse scores.
var accuracyStrategies = []string{"universal", "laplace", "unattributed", "wavelet", "universal2d"}

// accuracyReleases is how many releases of each strategy are scored.
const accuracyReleases = 8

// accuracyMints has the server mint accuracyReleases releases of every
// strategy into their own namespace, whatever the workload mints, and
// returns them decoded from the replies: each strategy's accuracy is
// measured on what is actually served.
func (t *tracer) accuracyMints() []bench.Minted {
	var out []bench.Minted
	for _, st := range accuracyStrategies {
		tg := &bench.Target{NS: "accuracy", Name: st, Strategy: st, Rect: st == "universal2d"}
		body := bench.MintBody(nil, tg, st, 0, 0) // a direct mint draws no sketch
		for i := 0; i < accuracyReleases; i++ {
			before := len(t.minted)
			if t.send(bench.MintReq(&bench.Mint{Target: tg, Strategy: st, Body: body})) && len(t.minted) > before {
				out = append(out, t.minted[before])
				t.minted = t.minted[:before]
			}
		}
	}
	return out
}

// metrics reduces every sample list to its median and adds the
// accuracy of each strategy's served releases.
func (t *tracer) metrics(accuracy []bench.Minted) map[string]bench.Metric {
	units := map[string]string{}
	for _, m := range Layers {
		units[m.Name] = m.Unit
	}
	out := map[string]bench.Metric{}
	for name, xs := range t.samples {
		if u, ok := units[name]; ok {
			out[name] = bench.Metric{Value: bench.Median(xs), Unit: u}
		}
	}
	acc := bench.MeasureAccuracy(accuracy, t.counts, t.rp.Grid)
	for st, v := range acc.PerStrategy {
		if name := "core." + st + ".rmse"; units[name] != "" {
			out[name] = bench.Metric{Value: v, Unit: units[name]}
		}
	}
	return out
}

func (t *tracer) writeSpans() error {
	if t.cfg.SpanFile == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(t.cfg.SpanFile), 0o755); err != nil {
		return err
	}
	f, err := os.Create(t.cfg.SpanFile)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func rangeCols(specs []dphist.RangeSpec) (lo, hi []int) {
	lo, hi = make([]int, len(specs)), make([]int, len(specs))
	for i, s := range specs {
		lo[i], hi[i] = s.Lo, s.Hi
	}
	return lo, hi
}

func rectCols(specs []dphist.RectSpec) (x0, y0, x1, y1 []int) {
	n := len(specs)
	x0, y0, x1, y1 = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	for i, s := range specs {
		x0[i], y0[i], x1[i], y1[i] = s.X0, s.Y0, s.X1, s.Y1
	}
	return x0, y0, x1, y1
}

// reshape folds counts row-major onto rows of width w, as dphist-server
// -grid does, and returns the grid and its flat row-major cells.
func reshape(counts []float64, w int) ([][]float64, []float64) {
	rows := (len(counts) + w - 1) / w
	flat := make([]float64, rows*w)
	copy(flat, counts)
	cells := make([][]float64, rows)
	for y := range cells {
		cells[y] = flat[y*w : (y+1)*w]
	}
	return cells, flat
}
