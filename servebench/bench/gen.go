// Package bench is the serving benchmark: it generates a seeded dataset
// and seeded request streams, drives a live dphist-server over loopback,
// checks every answer against the releases the server handed out, and
// reports the end-to-end metrics declared in BENCHMARK.json.
package bench

import (
	"math"
	"math/rand/v2"
	"strconv"

	"github.com/dphist/dphist"
)

// Shapes of the protected data. The read workloads serve a 1024-bucket
// domain folded onto a 32x32 grid; write-mixed uses 256 buckets on a
// 16x16 grid so "strategy":"auto" stays on the advisor's exact path
// (at most 512 leaves on the mint path).
const (
	ReadDomain  = 1024
	ReadGrid    = 32
	WriteDomain = 256
	WriteGrid   = 16
	// Records is the size of the protected dataset piped to the server.
	Records = 1 << 20
	// Budget is each namespace's epsilon budget. It and every epsilon the
	// benchmark spends are dyadic, so budget_remaining drops by exactly
	// the request's epsilon in float64.
	Budget = 1 << 20
	// MintEps is the epsilon of every mint the benchmark sends.
	MintEps = 0.5
)

// rngFor returns the benchmark's PCG for one purpose of one seed; the
// stream constants keep the purposes independent.
func rngFor(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Dataset draws n protected records over [0, domain) from a fixed
// mixture (Gaussian bumps, Zipf heavy hitters on a shuffled domain, a
// uniform floor) and returns them as the server's CSV input together
// with their true counts. The mixture's shape depends only on the
// domain, so every seed serves a histogram of the same shape and only
// the sampled records differ: seeds vary the inputs, not the cost of
// minting them.
func Dataset(seed uint64, domain, n int) ([]byte, []float64) {
	shape := rngFor(uint64(domain), 0x5a9e)
	type bump struct{ mu, sigma float64 }
	bumps := make([]bump, 6)
	for i := range bumps {
		bumps[i] = bump{shape.Float64() * float64(domain), float64(domain) * (0.005 + 0.05*shape.Float64())}
	}
	perm := shape.Perm(domain)
	rng := rngFor(seed, 0xda7a)
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(domain-1))
	counts := make([]float64, domain)
	csv := make([]byte, 0, n*5)
	for i := 0; i < n; i++ {
		var p int
		switch u := rng.Float64(); {
		case u < 0.6:
			b := bumps[rng.IntN(len(bumps))]
			p = int(math.Round(b.mu + b.sigma*rng.NormFloat64()))
			if p < 0 || p >= domain {
				p = rng.IntN(domain)
			}
		case u < 0.85:
			p = perm[zipf.Uint64()]
		default:
			p = rng.IntN(domain)
		}
		counts[p]++
		csv = strconv.AppendInt(csv, int64(p), 10)
		csv = append(csv, '\n')
	}
	return csv, counts
}

// Target is one named release a workload mints and queries.
type Target struct {
	NS, Name string
	// Strategy is the strategy minted at setup; "auto" mints with a
	// workload sketch and lets the server's advisor choose.
	Strategy string
	// Rect targets are queried with rectangles on /query2d.
	Rect bool
}

// QueryPath is the target's namespace-scoped query route.
func (t Target) QueryPath() string {
	if t.Rect {
		return "/v1/ns/" + t.NS + "/query2d"
	}
	return "/v1/ns/" + t.NS + "/query"
}

// MintPath is the target's namespace-scoped mint-and-store route.
func (t Target) MintPath() string { return "/v1/ns/" + t.NS + "/releases" }

// InteractiveTargets are read-interactive's eight dashboard releases over
// four namespaces, in descending Zipf popularity. Together they cover
// every plan mode the server builds by default: tree-offset (universal),
// prefix (laplace, wavelet, unattributed) and quadtree (universal2d).
var InteractiveTargets = []Target{
	{NS: "dash-a", Name: "traffic", Strategy: "universal"},
	{NS: "dash-b", Name: "heatmap", Strategy: "universal2d", Rect: true},
	{NS: "dash-a", Name: "latency", Strategy: "laplace"},
	{NS: "dash-c", Name: "signups", Strategy: "wavelet"},
	{NS: "dash-b", Name: "ranked", Strategy: "unattributed"},
	{NS: "dash-d", Name: "sessions", Strategy: "auto"},
	{NS: "dash-c", Name: "regions", Strategy: "universal2d", Rect: true},
	{NS: "dash-d", Name: "errors", Strategy: "universal"},
}

// BulkTargets are read-bulk's scan targets, one per plan mode, plus an
// auto mint that is never scanned (it only times the advisor at setup).
var BulkTargets = []Target{
	{NS: "scan", Name: "tree", Strategy: "universal"},
	{NS: "scan", Name: "prefix", Strategy: "laplace"},
	{NS: "scan", Name: "quad", Strategy: "universal2d", Rect: true},
	{NS: "scan", Name: "advised", Strategy: "auto"},
}

// BulkScanned is how many of BulkTargets the bulk requests address.
const BulkScanned = 3

// Write-mixed re-mints a bounded set of names: writeNames per namespace
// over writeNamespaces, the first writeRectNames of each 2-D.
const (
	writeNamespaces = 4
	writeNames      = 16
	writeRectNames  = 4
)

// WriteTargets returns write-mixed's 64 re-minted names. The strategy is
// the one pre-filled; window mints follow writeMix.
func WriteTargets() []Target {
	oneD := []string{"universal", "laplace", "unattributed", "wavelet"}
	var ts []Target
	for ns := 0; ns < writeNamespaces; ns++ {
		for i := 0; i < writeNames; i++ {
			t := Target{NS: "ops-" + strconv.Itoa(ns), Name: "m" + strconv.Itoa(i)}
			if i < writeRectNames {
				t.Strategy, t.Rect = "universal2d", true
			} else {
				t.Strategy = oneD[i%len(oneD)]
			}
			ts = append(ts, t)
		}
	}
	return ts
}

// writeMix is the fixed strategy cycle of 1-D window mints: a fixed mix
// (rather than a seeded draw) keeps range_rmse comparable across seeds.
// Three of twenty are "auto"; with the 2-D names (a quarter of all
// mints) about 11% of all mints resolve through the advisor.
var writeMix = []string{
	"universal", "laplace", "unattributed", "wavelet", "universal",
	"laplace", "auto", "unattributed", "wavelet", "universal",
	"laplace", "unattributed", "auto", "wavelet", "universal",
	"laplace", "unattributed", "wavelet", "auto", "universal",
}

// IngestNS is the namespace write-mixed ingests into; keeping it apart
// from the minted namespaces keeps epoch charges out of their budgets.
const IngestNS = "events"

var ingestStreams = []string{"clicks", "views", "carts", "buys"}

// Query is one generated query batch.
type Query struct {
	Target *Target
	Ranges []dphist.RangeSpec
	Rects  []dphist.RectSpec
	Body   []byte
	// Repeat marks an exact copy of a recent batch (a dashboard refresh).
	Repeat bool
}

// Specs is the batch size.
func (q *Query) Specs() int { return len(q.Ranges) + len(q.Rects) }

// QueryGen generates an interactive query stream: Zipf release
// popularity, batches of correlated ranges or rectangles, and a fixed
// share of exact repeats of recent batches.
type QueryGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	targets []Target
	domain  int
	grid    int
	batch   int
	repeat  float64
	recent  []*Query
	made    int
}

// recentBatches is how far back a dashboard refresh reaches.
const recentBatches = 64

// NewQueryGen returns the seeded generator for the given targets.
func NewQueryGen(seed, stream uint64, targets []Target, domain, grid, batch int, repeat float64) *QueryGen {
	rng := rngFor(seed, stream)
	return &QueryGen{
		rng:     rng,
		zipf:    rand.NewZipf(rng, 1.1, 1, uint64(len(targets)-1)),
		targets: targets,
		domain:  domain,
		grid:    grid,
		batch:   batch,
		repeat:  repeat,
	}
}

// Next returns the stream's next batch.
func (g *QueryGen) Next() *Query {
	if len(g.recent) > 0 && g.rng.Float64() < g.repeat {
		q := *g.recent[g.rng.IntN(len(g.recent))]
		q.Repeat = true
		return &q
	}
	t := &g.targets[g.zipf.Uint64()]
	q := &Query{Target: t}
	if t.Rect {
		q.Rects = correlatedRects(g.rng, g.grid, g.batch)
		q.Body = rectBody(nil, t.Name, q.Rects)
	} else {
		q.Ranges = correlatedRanges(g.rng, g.domain, g.batch)
		q.Body = rangeBody(nil, t.Name, q.Ranges)
	}
	if len(g.recent) < recentBatches {
		g.recent = append(g.recent, q)
	} else {
		g.recent[g.made%recentBatches] = q
	}
	g.made++
	return q
}

// correlatedRanges draws a batch around one focus point, with widths
// from a log-uniform scale: the ranges of one dashboard panel overlap.
func correlatedRanges(rng *rand.Rand, domain, n int) []dphist.RangeSpec {
	focus := rng.IntN(domain)
	scale := math.Exp(rng.Float64() * math.Log(float64(domain)/4))
	out := make([]dphist.RangeSpec, n)
	for i := range out {
		lo := clamp(focus+int(rng.NormFloat64()*scale), 0, domain-1)
		hi := clamp(lo+1+int(rng.Float64()*2*scale), lo+1, domain)
		out[i] = dphist.RangeSpec{Lo: lo, Hi: hi}
	}
	return out
}

// correlatedRects is correlatedRanges on the grid.
func correlatedRects(rng *rand.Rand, grid, n int) []dphist.RectSpec {
	fx, fy := rng.IntN(grid), rng.IntN(grid)
	scale := math.Exp(rng.Float64() * math.Log(float64(grid)/2))
	out := make([]dphist.RectSpec, n)
	for i := range out {
		x0 := clamp(fx+int(rng.NormFloat64()*scale), 0, grid-1)
		y0 := clamp(fy+int(rng.NormFloat64()*scale), 0, grid-1)
		x1 := clamp(x0+1+int(rng.Float64()*scale), x0+1, grid)
		y1 := clamp(y0+1+int(rng.Float64()*scale), y0+1, grid)
		out[i] = dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1}
	}
	return out
}

func clamp(v, lo, hi int) int {
	return min(max(v, lo), hi)
}

// BulkGen generates read-bulk requests: request i is a pure function of
// (seed, i), so any worker may build any request. Specs within a batch
// are distinct and uniformly spread, so batches never repeat.
type BulkGen struct {
	seed  uint64
	seen  []uint32 // stamp of the last request that drew each spec
	stamp uint32
}

// BulkSpecs is the number of specs in one read-bulk request.
const BulkSpecs = 10000

// NewBulkGen returns a generator; each worker needs its own.
func NewBulkGen(seed uint64) *BulkGen {
	side := ReadGrid + 1
	return &BulkGen{seed: seed, seen: make([]uint32, max((ReadDomain+1)*(ReadDomain+1), side*side*side*side))}
}

// Request returns bulk request i.
func (g *BulkGen) Request(i uint64) *Query {
	rng := rngFor(g.seed, 0xb01c0000+i)
	t := &BulkTargets[i%BulkScanned]
	g.stamp++
	q := &Query{Target: t}
	if t.Rect {
		side := ReadGrid + 1
		q.Rects = make([]dphist.RectSpec, 0, BulkSpecs)
		for len(q.Rects) < BulkSpecs {
			x0, x1 := ordered(rng, ReadGrid)
			y0, y1 := ordered(rng, ReadGrid)
			if k := ((x0*side+x1)*side+y0)*side + y1; g.seen[k] != g.stamp {
				g.seen[k] = g.stamp
				q.Rects = append(q.Rects, dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1})
			}
		}
		q.Body = rectBody(nil, t.Name, q.Rects)
		return q
	}
	q.Ranges = make([]dphist.RangeSpec, 0, BulkSpecs)
	for len(q.Ranges) < BulkSpecs {
		lo, hi := ordered(rng, ReadDomain)
		if k := lo*(ReadDomain+1) + hi; g.seen[k] != g.stamp {
			g.seen[k] = g.stamp
			q.Ranges = append(q.Ranges, dphist.RangeSpec{Lo: lo, Hi: hi})
		}
	}
	q.Body = rangeBody(nil, t.Name, q.Ranges)
	return q
}

// ordered draws a non-empty half-open interval of [0, n].
func ordered(rng *rand.Rand, n int) (int, int) {
	a, b := rng.IntN(n+1), rng.IntN(n+1)
	for a == b {
		b = rng.IntN(n + 1)
	}
	return min(a, b), max(a, b)
}

func rangeBody(b []byte, name string, specs []dphist.RangeSpec) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","ranges":[`...)
	for i, s := range specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lo":`...)
		b = strconv.AppendInt(b, int64(s.Lo), 10)
		b = append(b, `,"hi":`...)
		b = strconv.AppendInt(b, int64(s.Hi), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func rectBody(b []byte, name string, specs []dphist.RectSpec) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","rects":[`...)
	for i, s := range specs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x0":`...)
		b = strconv.AppendInt(b, int64(s.X0), 10)
		b = append(b, `,"y0":`...)
		b = strconv.AppendInt(b, int64(s.Y0), 10)
		b = append(b, `,"x1":`...)
		b = strconv.AppendInt(b, int64(s.X1), 10)
		b = append(b, `,"y1":`...)
		b = strconv.AppendInt(b, int64(s.Y1), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// Mint is one generated mint request.
type Mint struct {
	Target   *Target
	Strategy string // as requested: a concrete strategy or "auto"
	Body     []byte
}

// MintBody encodes a mint of name with strategy; auto mints carry a
// sketch of weighted ranges (or rectangles for 2-D targets) drawn from
// rng.
func MintBody(rng *rand.Rand, t *Target, strategy string, domain, grid int) []byte {
	b := []byte(`{"name":"` + t.Name + `","strategy":"` + strategy + `","epsilon":`)
	b = strconv.AppendFloat(b, MintEps, 'g', -1, 64)
	if strategy == "auto" {
		b = append(b, `,"workload":{"ranges":[`...)
		for i := 0; i < 24; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			lo, hi := ordered(rng, domain)
			b = append(b, `{"lo":`...)
			b = strconv.AppendInt(b, int64(lo), 10)
			b = append(b, `,"hi":`...)
			b = strconv.AppendInt(b, int64(hi), 10)
			b = append(b, `,"weight":`...)
			b = strconv.AppendInt(b, int64(1+rng.IntN(4)), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	}
	return append(b, '}')
}

// IngestEvents is the size of one ingest batch.
const IngestEvents = 100

// IngestBody encodes one batch of IngestEvents events on seeded streams
// and buckets.
func IngestBody(rng *rand.Rand, domain int) []byte {
	b := []byte(`{"events":[`)
	for i := 0; i < IngestEvents; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"stream":"`...)
		b = append(b, ingestStreams[rng.IntN(len(ingestStreams))]...)
		b = append(b, `","bucket":`...)
		b = strconv.AppendInt(b, int64(rng.IntN(domain)), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// WriteGen generates write-mixed's write stream: mints of the bounded
// name set, interleaved with ingest batches in proportion mintShare.
type WriteGen struct {
	rng       *rand.Rand
	targets   []Target
	mintShare float64
	mints     int
}

// NewWriteGen returns the seeded write-stream generator.
func NewWriteGen(seed uint64, targets []Target, mintShare float64) *WriteGen {
	return &WriteGen{rng: rngFor(seed, 0x3717e), targets: targets, mintShare: mintShare}
}

// Next returns the next write: a mint or an ingest batch.
func (g *WriteGen) Next() *Req {
	if g.rng.Float64() >= g.mintShare {
		return IngestReq(IngestBody(g.rng, WriteDomain))
	}
	t := &g.targets[g.rng.IntN(len(g.targets))]
	strategy := "universal2d"
	if !t.Rect {
		strategy = writeMix[g.mints%len(writeMix)]
		g.mints++
	}
	return MintReq(&Mint{Target: t, Strategy: strategy, Body: MintBody(g.rng, t, strategy, WriteDomain, WriteGrid)})
}
