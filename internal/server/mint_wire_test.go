package server

// Byte-equality tests for the hand-appended write paths: mint replies
// on both routes and the replication stream must be exactly what the
// reflection encoders wrote, and /v1/stats must report every namespace
// without creating budget state.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/journal"
)

// newEveryStrategyServer serves every strategy, hierarchy and the 2-D
// grid included, over an in-memory store.
func newEveryStrategyServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{
		Counts:    []float64{2, 0, 10, 2, 5}, // five counts = five Grades leaves
		Cells:     [][]float64{{2, 0, 7}, {10, 2, 1}},
		Budget:    100,
		Seed:      7,
		Hierarchy: dphist.Grades(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeJSONBytes is what the reflection path wrote for v.
func writeJSONBytes(t *testing.T, s *Server, v any) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, v)
	if rec.Code != http.StatusOK {
		t.Fatalf("writeJSON oracle failed: %d %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// decisionOf returns the release's auto decision, or nil for a direct
// mint, as the handlers pass it to the reply.
func decisionOf(rel dphist.Release) *dphist.AutoDecision {
	if dec, ok := dphist.ReleaseDecision(rel); ok {
		return &dec
	}
	return nil
}

// servedStrategies are the wire names every mint test covers.
func servedStrategies() []string {
	var out []string
	for _, st := range dphist.Strategies() {
		out = append(out, st.String())
	}
	return append(out, dphist.StrategyAuto.String())
}

// Each mint reply equals writeJSON of its response struct built from the
// same release, on both routes, for every strategy plus auto, under a
// release name that needs HTML escaping.
func TestMintRepliesMatchWriteJSON(t *testing.T) {
	s := newEveryStrategyServer(t)
	h := s.Handler()
	const ns, name = "a", "<&>"
	for i, strategy := range servedStrategies() {
		t.Run(strategy, func(t *testing.T) {
			eps := 0.125 * float64(i+1)
			body := fmt.Sprintf(`{"name":%q,"strategy":%q,"epsilon":%v,"workload":{"preset":"prefixes"}}`, name, strategy, eps)

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ns/"+ns+"/releases", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("store mint: %d %s", rec.Code, rec.Body)
			}
			rel, entry, ok := s.store.Namespace(ns).Get(name)
			if !ok {
				t.Fatal("minted release not stored")
			}
			raw, err := json.Marshal(rel)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := s.session(ns)
			if err != nil {
				t.Fatal(err)
			}
			want := writeJSONBytes(t, s, storeReleaseResponse{
				storedReleaseInfo: wireEntry(entry),
				Release:           raw,
				Auto:              decisionOf(rel),
				BudgetRemaining:   sess.Remaining(),
			})
			if got := rec.Body.String(); got != want {
				t.Fatalf("store mint reply diverges from writeJSON:\n got %s\nwant %s", got, want)
			}
			if !strings.Contains(want, `"name":"\u003c\u0026\u003e"`) {
				t.Fatalf("name not HTML-escaped in %s", want)
			}

			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ns/"+ns+"/release", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("mint: %d %s", rec.Code, rec.Body)
			}
			var reply releaseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
			minted, err := dphist.DecodeRelease(reply.Release)
			if err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(minted); err != nil {
				t.Fatal(err)
			}
			want = writeJSONBytes(t, s, releaseResponse{
				Version:         dphist.WireVersion,
				Strategy:        minted.Strategy().String(),
				Epsilon:         eps,
				Domain:          len(s.cfg.Counts),
				Release:         raw,
				Auto:            decisionOf(minted),
				BudgetRemaining: sess.Remaining(),
			})
			if got := rec.Body.String(); got != want {
				t.Fatalf("mint reply diverges from writeJSON:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// nanRelease is a release whose wire form cannot be encoded.
type nanRelease struct{ dphist.Release }

func (nanRelease) MarshalJSON() ([]byte, error) { return json.Marshal(math.NaN()) }

// An unencodable mint reply is a counted 500, as on the query path.
func TestMintReplyEncodeFailureCounted(t *testing.T) {
	s := newEveryStrategyServer(t)
	rel, err := dphist.MustNew(dphist.WithSeed(1)).LaplaceHistogram([]float64{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	out, err := appendReleaseResponse(nil, 1, 2, nanRelease{rel}, nil, 1)
	s.writeAppended(rec, out, err)
	if rec.Code != http.StatusInternalServerError || !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("unencodable release: %d %q", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	out, err = appendReleaseResponse(nil, 1, 2, rel, nil, math.Inf(1))
	s.writeAppended(rec, out, err)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("infinite budget: %d %q", rec.Code, rec.Body)
	}
	if got := s.encodeErrors.Load(); got != 2 {
		t.Fatalf("encodeErrors = %d, want 2", got)
	}
}

// The replication stream writes each record as json.Encoder would, over
// a log holding puts (one of them auto-stamped), charges and a delete.
func TestReplStreamMatchesJSONEncoder(t *testing.T) {
	store, ts := newDurableServer(t)
	mintOne(t, ts, "traffic", 0.5)
	resp, err := http.Post(ts.URL+"/v1/ns/t/releases", "application/json",
		strings.NewReader(`{"name":"<&>","strategy":"auto","epsilon":0.25,"workload":{"preset":"points"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto mint: HTTP %d", resp.StatusCode)
	}
	if !store.Delete("traffic") {
		t.Fatal("delete found nothing")
	}
	recs, err := store.ReplicationRead(1)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[journal.Op]int{}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, rec := range recs {
		ops[rec.Op]++
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if ops[journal.OpPut] != 2 || ops[journal.OpCharge] != 2 || ops[journal.OpDelete] != 1 {
		t.Fatalf("log holds %v, want 2 puts, 2 charges, 1 delete", ops)
	}
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream diverges from json.Encoder:\n got %s\nwant %s", got, want.Bytes())
	}
}

// /v1/stats is an unauthenticated read: a namespace holding releases
// but no accountant reports the untouched budget, and neither it nor
// the default namespace gains an accountant or a session.
func TestStatsCreatesNoState(t *testing.T) {
	s, err := New(Config{Counts: []float64{2, 0, 10, 2}, Budget: 2.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dphist.MustNew(dphist.WithSeed(3)).LaplaceHistogram([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"r1", "r2"} {
		if _, err := s.store.Namespace("stored-only").Put(name, rel); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	want := []namespaceStats{
		{Name: dphist.DefaultNamespace, Releases: 0, BudgetTotal: 2, BudgetSpent: 0, BudgetRemaining: 2},
		{Name: "stored-only", Releases: 2, BudgetTotal: 2, BudgetSpent: 0, BudgetRemaining: 2},
	}
	if fmt.Sprint(st.Namespaces) != fmt.Sprint(want) {
		t.Fatalf("namespaces = %+v, want %+v", st.Namespaces, want)
	}
	for _, ns := range []string{dphist.DefaultNamespace, "stored-only"} {
		if _, ok := s.store.LookupAccountant(ns); ok {
			t.Fatalf("stats created an accountant for %s", ns)
		}
	}
	s.sessMu.Lock()
	sessions := len(s.sessions)
	s.sessMu.Unlock()
	if sessions != 0 {
		t.Fatalf("stats opened %d sessions", sessions)
	}
}

// BenchmarkServerMintHTTP times POST /v1/ns/a/releases through the
// handler — session charge, noise, inference, store put and the reply
// encode — per strategy over an in-memory store.
func BenchmarkServerMintHTTP(b *testing.B) {
	for _, domain := range []int{256, 1024} {
		counts := make([]float64, domain)
		for i := range counts {
			counts[i] = float64((i * 13) % 29)
		}
		side := 16
		cells := make([][]float64, domain/side)
		for y := range cells {
			cells[y] = counts[y*side : (y+1)*side]
		}
		for _, strategy := range []string{"universal", "laplace", "unattributed", "wavelet", "degree_sequence", "universal2d"} {
			b.Run(fmt.Sprintf("%s/domain=%d", strategy, domain), func(b *testing.B) {
				s, err := New(Config{Counts: counts, Cells: cells, Budget: 1e12, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				h := s.Handler()
				req, body := queryHTTPRequest("/v1/ns/a/releases",
					`{"name":"r","strategy":"`+strategy+`","epsilon":0.1}`)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("mint: %d %s", rec.Code, rec.Body)
				}
				w := &nullResponseWriter{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body.off = 0
					h.ServeHTTP(w, req)
				}
			})
		}
	}
}
