package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/ingest"
)

// newIngestServer wires a server whose store is shared with a live
// ingest pipeline, epoch interval long enough that only explicit Flush
// calls mint. Its 4x2 grid makes universal2d servable.
func newIngestServer(t *testing.T, mutate func(*ingest.Config)) (*httptest.Server, *ingest.Ingester, *dphist.Store) {
	t.Helper()
	store := dphist.NewStore(dphist.WithBudget(100))
	mech, err := dphist.New(dphist.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ingest.Config{
		Store:     store,
		Mechanism: mech,
		Domain:    8,
		Epoch:     time.Hour,
		Epsilon:   0.5,
		Shards:    2,
		Seed:      3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	t.Cleanup(func() { in.Close() })
	s, err := New(Config{
		Counts:   []float64{1, 1, 1, 1, 1, 1, 1, 1},
		Cells:    [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		Store:    store,
		Seed:     7,
		Ingester: in,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, in, store
}

// TestIngestEndToEnd is the wire-level demo: events POSTed to
// /v1/ingest become a queryable epoch release, the window release
// follows, and /v1/stats reports the pipeline counters.
func TestIngestEndToEnd(t *testing.T) {
	ts, in, _ := newIngestServer(t, func(c *ingest.Config) { c.Window = 2 })

	resp, body := postJSON(t, ts, "/v1/ingest",
		`{"events":[{"stream":"clicks","bucket":0,"weight":10},
		            {"stream":"clicks","bucket":3},
		            {"stream":"clicks","bucket":99},
		            {"stream":"clicks","bucket":7,"weight":5}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 3 || ir.Dropped != 1 {
		t.Fatalf("accepted %d dropped %d, want 3 and 1", ir.Accepted, ir.Dropped)
	}
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}

	// The minted epoch answers /v1/query like any stored release.
	resp, body = postJSON(t, ts, "/v1/query",
		`{"name":"`+ingest.EpochName("clicks", 1)+`","ranges":[{"lo":0,"hi":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != 1 {
		t.Fatalf("answers %v", qr.Answers)
	}
	// Weight 10 + 1 + 5 = 16; epsilon 0.5 noise stays well inside ±40.
	if qr.Answers[0] < -24 || qr.Answers[0] > 56 {
		t.Fatalf("epoch total %v, want near 16", qr.Answers[0])
	}
	for _, name := range []string{ingest.LatestName("clicks"), ingest.WindowName("clicks")} {
		resp, body = postJSON(t, ts, "/v1/query", `{"name":"`+name+`","ranges":[{"lo":0,"hi":8}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s status %d: %s", name, resp.StatusCode, body)
		}
	}

	resp, body = getStats(t, ts)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var stats struct {
		Ingest struct {
			Enabled    bool  `json:"enabled"`
			Events     int64 `json:"events"`
			Dropped    int64 `json:"dropped"`
			EpochMints int64 `json:"epoch_mints"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Ingest.Enabled || stats.Ingest.Events != 3 || stats.Ingest.Dropped != 1 || stats.Ingest.EpochMints != 1 {
		t.Fatalf("stats ingest block %+v", stats.Ingest)
	}
}

func getStats(t *testing.T, ts *httptest.Server) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []byte
	buf := make([]byte, 1<<16)
	for {
		n, err := resp.Body.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, out
}

// TestIngestNamespaced: the /v1/ns/{ns}/ingest twin writes into that
// namespace's keyspace, invisible to the default namespace.
func TestIngestNamespaced(t *testing.T) {
	ts, in, store := newIngestServer(t, nil)
	resp, body := postJSON(t, ts, "/v1/ns/acme/ingest",
		`{"events":[{"stream":"clicks","bucket":1,"weight":4}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("namespaced ingest status %d: %s", resp.StatusCode, body)
	}
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := store.Namespace("acme").Get(ingest.EpochName("clicks", 1)); !ok {
		t.Fatal("namespaced epoch missing")
	}
	if _, _, ok := store.Namespace(dphist.DefaultNamespace).Get(ingest.EpochName("clicks", 1)); ok {
		t.Fatal("namespaced ingest leaked into default namespace")
	}
	resp, _ = postJSON(t, ts, "/v1/ns/../ingest", `{"events":[{"stream":"x","bucket":0}]}`)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("dot-segment namespace accepted")
	}
}

func TestIngestLiveEndpoint(t *testing.T) {
	ts, in, _ := newIngestServer(t, func(c *ingest.Config) { c.LiveEpsilon = 50 })
	if _, body := postJSON(t, ts, "/v1/ingest",
		`{"events":[{"stream":"clicks","bucket":2,"weight":30},{"stream":"clicks","bucket":5,"weight":7}]}`); len(body) == 0 {
		t.Fatal("empty ingest reply")
	}
	// Serialize behind the batch so the live counters exist.
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/ingest/live", `{"stream":"clicks","buckets":[2,5,0]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live status %d: %s", resp.StatusCode, body)
	}
	var lr ingestLiveResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	want := []float64{30, 7, 0}
	for i := range want {
		if lr.Counts[i] < want[i]-2 || lr.Counts[i] > want[i]+2 {
			t.Fatalf("live counts %v, want near %v", lr.Counts, want)
		}
	}
	// Malformed requests.
	if resp, _ := postJSON(t, ts, "/v1/ingest/live", `{"buckets":[0]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing stream: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/ingest/live", `{"stream":"clicks","buckets":[99]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-domain bucket: status %d", resp.StatusCode)
	}
}

func TestIngestLiveDisabled(t *testing.T) {
	ts, _, _ := newIngestServer(t, nil)
	resp, _ := postJSON(t, ts, "/v1/ingest/live", `{"stream":"clicks","buckets":[0]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled live surface: status %d, want 404", resp.StatusCode)
	}
}

// TestIngestNotConfigured: servers without a pipeline refuse the ingest
// routes but keep serving everything else.
func TestIngestNotConfigured(t *testing.T) {
	ts := newTestServer(t, 2.0)
	for _, path := range []string{"/v1/ingest", "/v1/ingest/live", "/v1/ns/acme/ingest"} {
		resp, _ := postJSON(t, ts, path, `{"events":[{"stream":"x","bucket":0}]}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s on query-only server: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, body := getStats(t, ts)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("stats broken on query-only server")
	}
	var stats struct {
		Ingest struct {
			Enabled bool `json:"enabled"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest.Enabled {
		t.Fatal("query-only server reports ingest enabled")
	}
}

func TestIngestValidation(t *testing.T) {
	ts, _, _ := newIngestServer(t, nil)
	for name, body := range map[string]string{
		"empty events": `{"events":[]}`,
		"no body":      `{}`,
		"malformed":    `{"events":`,
	} {
		resp, _ := postJSON(t, ts, "/v1/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}
