package loadgen

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/ingest"
	"github.com/dphist/dphist/internal/server"
)

func TestHistExactBelowSubBuckets(t *testing.T) {
	var h Hist
	for v := int64(0); v < histSubBuckets; v++ {
		if got := bucketValue(bucketIndex(v)); got != v {
			t.Fatalf("value %d round-trips to %d", v, got)
		}
		h.Record(v)
	}
	if h.Count() != histSubBuckets {
		t.Fatalf("count %d", h.Count())
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != histSubBuckets-1 {
		t.Fatalf("quantile bounds %d..%d", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistRelativeError(t *testing.T) {
	for _, v := range []int64{33, 100, 1023, 4096, 1e6, 37_123_456, 1e12, math.MaxInt64} {
		got := bucketValue(bucketIndex(v))
		relErr := math.Abs(float64(got-v)) / float64(v)
		if relErr > 1.0/histSubBuckets {
			t.Errorf("value %d represented as %d: relative error %.3f", v, got, relErr)
		}
	}
}

func TestHistBucketMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1000, 1 << 20, 1 << 40, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d below previous %d", v, idx, prev)
		}
		if idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		prev = idx
	}
}

func TestHistQuantileAndMerge(t *testing.T) {
	var a, b Hist
	for i := int64(1); i <= 1000; i++ {
		if i%2 == 0 {
			a.Record(i * 1000)
		} else {
			b.Record(i * 1000)
		}
	}
	a.Merge(&b)
	if a.Count() != 1000 {
		t.Fatalf("merged count %d", a.Count())
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500_000}, {0.99, 990_000}, {0.999, 999_000}} {
		got := a.Quantile(tc.q)
		if relErr := math.Abs(float64(got-tc.want)) / float64(tc.want); relErr > 2.0/histSubBuckets {
			t.Errorf("q%.3f = %d, want ~%d", tc.q, got, tc.want)
		}
	}
	if a.Quantile(1) != a.Max() {
		t.Fatalf("q1 %d != max %d", a.Quantile(1), a.Max())
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile nonzero")
	}
}

// newLoadServer builds a live server with a stored 1-D release, a 2-D
// release, and a running ingest pipeline — every op class the
// generator drives.
func newLoadServer(t *testing.T) *httptest.Server {
	t.Helper()
	store := dphist.NewStore(dphist.WithBudget(1000))
	mech, err := dphist.New(dphist.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	in, err := ingest.New(ingest.Config{
		Store:     store,
		Mechanism: mech,
		Domain:    64,
		Epoch:     time.Hour,
		Epsilon:   0.5,
		Shards:    2,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	t.Cleanup(func() { in.Close() })
	counts := make([]float64, 64)
	cells := make([][]float64, 8)
	for i := range counts {
		counts[i] = float64(i % 7)
	}
	for y := range cells {
		cells[y] = counts[y*8 : y*8+8]
	}
	s, err := server.New(server.Config{
		Counts:   counts,
		Cells:    cells,
		Store:    store,
		Seed:     7,
		Ingester: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func mustMint(t *testing.T, ts *httptest.Server, body string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/releases", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("mint status %d", resp.StatusCode)
	}
}

func TestRunMixedTraffic(t *testing.T) {
	ts := newLoadServer(t)
	mustMint(t, ts, `{"name":"hot","strategy":"universal","epsilon":0.5}`)
	mustMint(t, ts, `{"name":"grid","strategy":"universal2d","epsilon":0.5}`)
	mustMint(t, ts, `{"name":"cold","strategy":"laplace","epsilon":0.5}`)

	targets, err := Discover(ts.Client(), ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 3 {
		t.Fatalf("discovered %d targets: %+v", len(targets), targets)
	}
	var saw2D bool
	for _, tg := range targets {
		if tg.Name == "grid" && tg.TwoD {
			saw2D = true
		}
	}
	if !saw2D {
		t.Fatalf("grid not flagged 2-D: %+v", targets)
	}

	rep, err := Run(Config{
		BaseURL:      ts.URL,
		Targets:      targets,
		Workers:      4,
		Duration:     300 * time.Millisecond,
		Warmup:       50 * time.Millisecond,
		QueryWeight:  0.8,
		MintWeight:   0.1,
		IngestWeight: 0.1,
		Batch:        4,
		Correlation:  0.7,
		MintEpsilon:  0.001,
		Seed:         42,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops recorded")
	}
	if rep.Errors != 0 {
		t.Fatalf("%d/%d ops failed: %+v", rep.Errors, rep.Ops, rep.Classes)
	}
	q := rep.Class("query")
	if q.Ops == 0 {
		t.Fatalf("no query ops: %+v", rep.Classes)
	}
	if q.P50Ns <= 0 || q.P99Ns < q.P50Ns || q.MaxNs < q.P99Ns {
		t.Fatalf("quantiles out of order: %+v", q)
	}
	if q.QPS <= 0 || rep.QPS < q.QPS {
		t.Fatalf("QPS accounting: total %.0f, query %.0f", rep.QPS, q.QPS)
	}
	// The mix should have exercised all three classes in 300ms of
	// unthrottled traffic at these weights.
	if rep.Class("mint").Ops == 0 || rep.Class("ingest").Ops == 0 {
		t.Fatalf("mix starved a class: %+v", rep.Classes)
	}
}

func TestRunThrottled(t *testing.T) {
	ts := newLoadServer(t)
	mustMint(t, ts, `{"name":"hot","strategy":"universal","epsilon":0.5}`)
	rep, err := Run(Config{
		BaseURL:  ts.URL,
		Targets:  []Target{{Name: "hot", Domain: 64}},
		Workers:  2,
		Duration: 400 * time.Millisecond,
		QPS:      100,
		Seed:     7,
		Client:   ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors: %+v", rep.Errors, rep.Classes)
	}
	// 100 QPS for 0.4s ≈ 40 ops; allow generous slack for scheduler
	// jitter but catch an unthrottled run (which would do thousands).
	if rep.Ops == 0 || rep.Ops > 120 {
		t.Fatalf("throttled run did %d ops, want ≈40", rep.Ops)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},                                      // no BaseURL
		{BaseURL: "http://x"},                   // queries but no targets
		{BaseURL: "http://x", ZipfS: 0.5},       // bad zipf
		{BaseURL: "http://x", Correlation: 1.5}, // bad correlation
		{BaseURL: "http://x", Targets: []Target{{Name: "t", Domain: 0}}},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}
