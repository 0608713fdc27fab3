package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"github.com/dphist/dphist"
)

func newTestServer(t *testing.T, budget float64) *httptest.Server {
	t.Helper()
	s, err := New(Config{
		Counts: []float64{2, 0, 10, 2, 5, 5, 5, 5},
		Budget: budget,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postRelease(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/release", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Counts: nil, Budget: 1}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := New(Config{Counts: []float64{1}, Budget: 0}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := New(Config{Counts: []float64{1}, Budget: 1, Branching: 1}); err == nil {
		t.Error("branching 1 accepted")
	}
	if _, err := New(Config{Counts: []float64{1, 2}, Budget: 1, Hierarchy: dphist.Grades()}); err == nil {
		t.Error("hierarchy with mismatched leaf count accepted")
	}
}

func TestBudgetEndpoint(t *testing.T) {
	ts := newTestServer(t, 2.0)
	resp, err := http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b budgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Total != 2.0 || b.Spent != 0 || b.Remaining != 2.0 {
		t.Fatalf("budget = %+v", b)
	}
}

// The acceptance test for the strategy registry: every library strategy
// is served by the one generic handler, each response decodes through
// the uniform Release interface, and every charge lands on the default
// namespace's store accountant.
func TestEveryStrategyThroughGenericHandler(t *testing.T) {
	grades := dphist.Grades()
	s, err := New(Config{
		Counts:    []float64{2, 0, 10, 2, 5}, // five counts = five Grades leaves
		Cells:     [][]float64{{2, 0}, {10, 2}},
		Budget:    100,
		Seed:      7,
		Hierarchy: grades,
	})
	if err != nil {
		t.Fatal(err)
	}
	acct := s.Store().Namespace(dphist.DefaultNamespace).Accountant()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const eps = 0.25
	want := 0.0
	for _, strategy := range dphist.Strategies() {
		t.Run(strategy.String(), func(t *testing.T) {
			resp, body := postRelease(t, ts,
				`{"strategy":"`+strategy.String()+`","epsilon":0.25}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var rr releaseResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.Strategy != strategy.String() || rr.Version != dphist.WireVersion {
				t.Fatalf("response meta wrong: %+v", rr)
			}
			rel, err := dphist.DecodeRelease(rr.Release)
			if err != nil {
				t.Fatalf("release payload does not decode: %v", err)
			}
			if rel.Strategy() != strategy {
				t.Fatalf("decoded strategy %v", rel.Strategy())
			}
			if rel.Epsilon() != eps {
				t.Fatalf("decoded epsilon %v", rel.Epsilon())
			}
			if len(rel.Counts()) == 0 {
				t.Fatal("decoded release has no counts")
			}
			if _, err := rel.Range(0, len(rel.Counts())); err != nil {
				t.Fatalf("decoded release cannot answer ranges: %v", err)
			}
			// The charge landed on the namespace's accountant, labelled
			// by strategy.
			want += eps
			if got := acct.Spent(); got != want {
				t.Fatalf("accountant spent %v, want %v", got, want)
			}
			log := acct.Log()
			if last := log[len(log)-1]; last.Label != "release:"+strategy.String() || last.Epsilon != eps {
				t.Fatalf("last charge = %+v", last)
			}
		})
	}
	if rem := acct.Remaining(); rem != 100-want {
		t.Fatalf("remaining %v after all strategies", rem)
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	ts := newTestServer(t, 1.0)
	resp, err := http.Get(ts.URL + "/v1/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr strategiesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	// No hierarchy and no 2-D dataset configured: those two strategies
	// are withheld, the rest are servable, plus the "auto" sentinel.
	if len(sr.Strategies) != len(dphist.Strategies())-2+1 {
		t.Fatalf("strategies = %v", sr.Strategies)
	}
	if !slices.Contains(sr.Strategies, "auto") {
		t.Fatalf("auto not advertised: %v", sr.Strategies)
	}
	for _, name := range sr.Strategies {
		if name == "hierarchy" {
			t.Fatal("unconfigured hierarchy advertised")
		}
		if name == "universal2d" {
			t.Fatal("unconfigured universal2d advertised")
		}
	}
}

func TestHierarchyRefusedWithoutConfig(t *testing.T) {
	ts := newTestServer(t, 1.0)
	resp, body := postRelease(t, ts, `{"strategy":"hierarchy","epsilon":0.1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

func TestUniversalReleaseOverHTTP(t *testing.T) {
	ts := newTestServer(t, 2.0)
	resp, body := postRelease(t, ts, `{"strategy":"universal","epsilon":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr releaseResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Strategy != "universal" || rr.Domain != 8 {
		t.Fatalf("response meta wrong: %+v", rr)
	}
	if rr.BudgetRemaining != 1.5 {
		t.Fatalf("budget remaining %v, want 1.5", rr.BudgetRemaining)
	}
	// The embedded release decodes into a queryable object client-side.
	var rel dphist.UniversalRelease
	if err := json.Unmarshal(rr.Release, &rel); err != nil {
		t.Fatal(err)
	}
	if rel.Domain() != 8 {
		t.Fatalf("decoded release domain %d", rel.Domain())
	}
	if _, err := rel.Range(0, 8); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyTaskAliasStillServed(t *testing.T) {
	ts := newTestServer(t, 2.0)
	resp, body := postRelease(t, ts, `{"task":"unattributed","epsilon":0.25}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unattributed status %d: %s", resp.StatusCode, body)
	}
	var rr releaseResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	var unat dphist.UnattributedRelease
	if err := json.Unmarshal(rr.Release, &unat); err != nil {
		t.Fatal(err)
	}
	if len(unat.Counts()) != 8 {
		t.Fatal("unattributed release wrong length")
	}
}

func TestBudgetEnforcement(t *testing.T) {
	ts := newTestServer(t, 1.0)
	if resp, _ := postRelease(t, ts, `{"strategy":"laplace","epsilon":0.8}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first release refused: %d", resp.StatusCode)
	}
	resp, body := postRelease(t, ts, `{"strategy":"laplace","epsilon":0.5}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overdraw status %d: %s", resp.StatusCode, body)
	}
	// The failed request must not have charged the budget.
	if resp, _ := postRelease(t, ts, `{"strategy":"laplace","epsilon":0.2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("within-budget release refused after failed overdraw: %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, 1.0)
	cases := []string{
		`{"strategy":"universal","epsilon":0}`,
		`{"strategy":"universal","epsilon":-1}`,
		`{"strategy":"nope","epsilon":0.1}`,
		`not json`,
	}
	for _, c := range cases {
		resp, _ := postRelease(t, ts, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %q: status %d, want 400", c, resp.StatusCode)
		}
	}
	// Bad requests cost nothing.
	resp, err := http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b budgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Spent != 0 {
		t.Fatalf("bad requests charged the budget: %+v", b)
	}
}

func TestPerRequestCap(t *testing.T) {
	s, err := New(Config{
		Counts:               []float64{1, 2},
		Budget:               10,
		MaxEpsilonPerRequest: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/release", "application/json",
		bytes.NewBufferString(`{"strategy":"laplace","epsilon":1.0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("capped request status %d", resp.StatusCode)
	}
}

func TestDefaultStrategyIsUniversal(t *testing.T) {
	ts := newTestServer(t, 1.0)
	resp, body := postRelease(t, ts, `{"epsilon":0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr releaseResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Strategy != "universal" {
		t.Fatalf("default strategy %q", rr.Strategy)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestStoreReleaseAndQueryRoundTrip(t *testing.T) {
	ts := newTestServer(t, 2.0)
	resp, body := postJSON(t, ts, "/v1/releases",
		`{"name":"traffic","strategy":"universal","epsilon":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("store status %d: %s", resp.StatusCode, body)
	}
	var sr storeReleaseResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Name != "traffic" || sr.Version != 1 || sr.Strategy != "universal" ||
		sr.Epsilon != 0.5 || sr.Domain != 8 || sr.BudgetRemaining != 1.5 {
		t.Fatalf("store response meta wrong: %+v", sr)
	}
	// The embedded payload still decodes client-side.
	if _, err := dphist.DecodeRelease(sr.Release); err != nil {
		t.Fatalf("stored release payload does not decode: %v", err)
	}

	// The stored release is listed.
	resp, err := http.Get(ts.URL + "/v1/releases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list listReleasesResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Releases) != 1 || list.Releases[0].Name != "traffic" || list.Releases[0].Version != 1 {
		t.Fatalf("list = %+v", list)
	}

	// And queryable by name, empty ranges included.
	resp, body = postJSON(t, ts, "/v1/query",
		`{"name":"traffic","ranges":[{"lo":0,"hi":8},{"lo":3,"hi":3},{"lo":2,"hi":5}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Name != "traffic" || qr.Version != 1 || qr.Strategy != "universal" || len(qr.Answers) != 3 {
		t.Fatalf("query response = %+v", qr)
	}
	if qr.Answers[1] != 0 {
		t.Fatalf("empty range answered %v", qr.Answers[1])
	}
	// Answers match the decoded release queried offline.
	rel, err := dphist.DecodeRelease(sr.Release)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dphist.QueryBatch(rel, []dphist.RangeSpec{{Lo: 0, Hi: 8}, {Lo: 3, Hi: 3}, {Lo: 2, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if qr.Answers[i] != want[i] {
			t.Fatalf("answers = %v, offline = %v", qr.Answers, want)
		}
	}
}

// The acceptance workload: a 1,000-range batch against one stored
// universal release, answered in one round trip.
func TestQueryThousandRangeBatch(t *testing.T) {
	ts := newTestServer(t, 2.0)
	if resp, body := postJSON(t, ts, "/v1/releases",
		`{"name":"traffic","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("store status %d: %s", resp.StatusCode, body)
	}
	specs := make([]dphist.RangeSpec, 1000)
	for i := range specs {
		lo := i % 8
		specs[i] = dphist.RangeSpec{Lo: lo, Hi: lo + (i % (9 - lo))}
	}
	payload, err := json.Marshal(struct {
		Name   string             `json:"name"`
		Ranges []dphist.RangeSpec `json:"ranges"`
	}{Name: "traffic", Ranges: specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts, "/v1/query", string(payload))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) != 1000 {
		t.Fatalf("%d answers for 1000 ranges", len(qr.Answers))
	}
}

func TestQueryErrors(t *testing.T) {
	ts := newTestServer(t, 2.0)
	// Unknown name is 404.
	resp, body := postJSON(t, ts, "/v1/query", `{"name":"absent","ranges":[{"lo":0,"hi":1}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown name status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts, "/v1/query", `{"ranges":[{"lo":0,"hi":1}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing name status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts, "/v1/releases", `{"strategy":"laplace","epsilon":0.1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing store name status %d", resp.StatusCode)
	}
	// Out-of-domain ranges against a live release are 400.
	if resp, body := postJSON(t, ts, "/v1/releases", `{"name":"h","epsilon":0.1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("store status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts, "/v1/query", `{"name":"h","ranges":[{"lo":0,"hi":99}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad range status %d", resp.StatusCode)
	}
	// Failed stores charge nothing beyond the successful one.
	resp2, err := http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var b budgetResponse
	if err := json.NewDecoder(resp2.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Spent != 0.1 {
		t.Fatalf("spent %v, want 0.1", b.Spent)
	}
}

func TestStoreReleaseVersioningOverHTTP(t *testing.T) {
	ts := newTestServer(t, 2.0)
	for want := 1; want <= 2; want++ {
		resp, body := postJSON(t, ts, "/v1/releases", `{"name":"h","strategy":"laplace","epsilon":0.1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("store status %d: %s", resp.StatusCode, body)
		}
		var sr storeReleaseResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Version != want {
			t.Fatalf("version = %d, want %d", sr.Version, want)
		}
	}
}

func TestConcurrentReleases(t *testing.T) {
	ts := newTestServer(t, 100)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/release", "application/json",
				bytes.NewBufferString(`{"strategy":"laplace","epsilon":1}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// All 32 charges accounted for.
	resp, err := http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b budgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Spent != 32 {
		t.Fatalf("spent %v, want 32", b.Spent)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, 1.0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// Namespaced routes scope both the release keyspace and the budget:
// tenant-a's mint is invisible to tenant-b, and each tenant's spend
// lands on its own accountant.
func TestNamespaceRoutes(t *testing.T) {
	s, err := New(Config{
		Counts: []float64{2, 0, 10, 2, 5, 5, 5, 5},
		Budget: 2.0,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(t *testing.T, path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := post(t, "/v1/ns/tenant-a/releases", `{"name":"traffic","strategy":"universal","epsilon":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-a mint: %d %s", resp.StatusCode, body)
	}
	var sr storeReleaseResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Namespace != "tenant-a" || sr.Version != 1 {
		t.Fatalf("stored entry = %+v", sr.storedReleaseInfo)
	}

	// tenant-b cannot see tenant-a's release...
	resp, _ = post(t, "/v1/ns/tenant-b/query", `{"name":"traffic","ranges":[{"lo":0,"hi":8}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-namespace query status %d", resp.StatusCode)
	}
	// ...but tenant-a can.
	resp, body = post(t, "/v1/ns/tenant-a/query", `{"name":"traffic","ranges":[{"lo":0,"hi":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant-a query: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Namespace != "tenant-a" || len(qr.Answers) != 1 {
		t.Fatalf("query response = %+v", qr)
	}

	// Budgets are independent: a spent 0.5 of 2, b spent nothing, and
	// the default namespace is untouched by both.
	for path, wantSpent := range map[string]float64{
		"/v1/ns/tenant-a/budget": 0.5,
		"/v1/ns/tenant-b/budget": 0,
		"/v1/budget":             0,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b budgetResponse
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if b.Total != 2.0 || b.Spent != wantSpent {
			t.Fatalf("%s = %+v, want spent %v", path, b, wantSpent)
		}
	}

	// Listing is scoped too.
	resp, err = http.Get(ts.URL + "/v1/ns/tenant-b/releases")
	if err != nil {
		t.Fatal(err)
	}
	var lr listReleasesResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lr.Releases) != 0 {
		t.Fatalf("tenant-b sees %d releases", len(lr.Releases))
	}

	// Invalid namespace names are refused before touching any state.
	resp, _ = post(t, "/v1/ns/bad%20name/query", `{"name":"x","ranges":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid namespace status %d", resp.StatusCode)
	}

	// Probing an absent namespace's budget answers the untouched default
	// without materializing the namespace — reads must not grow state.
	resp, err = http.Get(ts.URL + "/v1/ns/probe-only/budget")
	if err != nil {
		t.Fatal(err)
	}
	var pb budgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&pb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pb.Total != 2.0 || pb.Spent != 0 {
		t.Fatalf("probe budget = %+v", pb)
	}
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	for _, ns := range st.Namespaces {
		if ns.Name == "probe-only" {
			t.Fatal("budget probe materialized the namespace")
		}
	}
}

// /v1/stats reports per-namespace sizes and budgets plus the request
// counters maintained by the middleware.
func TestStatsEndpoint(t *testing.T) {
	s, err := New(Config{
		Counts: []float64{2, 0, 10, 2, 5, 5, 5, 5},
		Budget: 2.0,
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Post(ts.URL+"/v1/ns/tenant-a/releases", "application/json",
		bytes.NewBufferString(`{"name":"r","strategy":"laplace","epsilon":0.25}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mint status %d", resp.StatusCode)
		}
	}
	// One guaranteed error for the error counter.
	if resp, err := http.Post(ts.URL+"/v1/release", "application/json",
		bytes.NewBufferString(`{"epsilon":-1}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.Total < 2 || st.Requests.Errors < 1 || st.Requests.ReleasesMinted != 1 {
		t.Fatalf("request counters = %+v", st.Requests)
	}
	if st.Durable {
		t.Fatal("in-memory server reports durable")
	}
	byName := map[string]namespaceStats{}
	for _, ns := range st.Namespaces {
		byName[ns.Name] = ns
	}
	a, ok := byName["tenant-a"]
	if !ok || a.Releases != 1 || a.BudgetSpent != 0.25 || a.BudgetTotal != 2.0 {
		t.Fatalf("tenant-a stats = %+v (present %v)", a, ok)
	}
	d, ok := byName[dphist.DefaultNamespace]
	if !ok || d.Releases != 0 || d.BudgetSpent != 0 {
		t.Fatalf("default stats = %+v (present %v)", d, ok)
	}
}

// Budget probes are unauthenticated reads: a namespace with no budget
// state, whether absent or holding releases stored without a charge,
// answers the untouched default and gains no accountant, which any
// session over the namespace would bring into being.
func TestBudgetProbesCreateNoState(t *testing.T) {
	s, err := New(Config{Counts: []float64{2, 0, 10, 2, 5, 5, 5, 5}, Budget: 2.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := dphist.MustNew(dphist.WithSeed(3)).LaplaceHistogram([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Namespace("stored-only").Put("r", rel); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ns := range []string{"ghost-1", "ghost-2", "stored-only"} {
		resp, err := http.Get(ts.URL + "/v1/ns/" + ns + "/budget")
		if err != nil {
			t.Fatal(err)
		}
		var b budgetResponse
		err = json.NewDecoder(resp.Body).Decode(&b)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := (budgetResponse{Namespace: ns, Total: 2, Spent: 0, Remaining: 2}); resp.StatusCode != http.StatusOK || b != want {
			t.Fatalf("%s budget: %d %+v, want %+v", ns, resp.StatusCode, b, want)
		}
		if _, ok := s.store.LookupAccountant(ns); ok {
			t.Fatalf("budget probe of %s created an accountant", ns)
		}
	}
}

// Queries to namespaces that do not exist are unauthenticated input: each
// must answer 404 without scanning the store or caching a view. A view
// is cached only once a query through it finds a live release.
func TestAbsentNamespaceQueriesCacheNothing(t *testing.T) {
	s, err := New(Config{Counts: []float64{2, 0, 10, 2, 5, 5, 5, 5}, Budget: 2.0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cachedViews := func() (n int) {
		s.nsViews.Range(func(any, any) bool { n++; return true })
		return n
	}
	const query = `{"name":"r","ranges":[{"lo":0,"hi":8}]}`
	for i := 0; i < 64; i++ {
		path := fmt.Sprintf("/v1/ns/ghost-%d/query", i)
		if resp, body := postJSON(t, ts, path, query); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
		}
	}
	if n := cachedViews(); n != 0 {
		t.Fatalf("absent-namespace queries cached %d views", n)
	}
	// A refused mint brings the namespace's budget into being but stores
	// no release, so queries into it still find nothing to cache.
	if resp, body := postJSON(t, ts, "/v1/ns/ghost-3/releases", `{"name":"r","strategy":"universal","epsilon":5}`); resp.StatusCode == http.StatusOK {
		t.Fatalf("overdrawn mint accepted: %s", body)
	}
	if _, ok := s.store.LookupAccountant("ghost-3"); !ok {
		t.Fatal("refused mint left no budget state")
	}
	if resp, body := postJSON(t, ts, "/v1/ns/ghost-3/query", query); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query into a release-less namespace: %d %s", resp.StatusCode, body)
	}
	if n := cachedViews(); n != 0 {
		t.Fatalf("queries into a release-less namespace cached %d views", n)
	}
	if resp, body := postJSON(t, ts, "/v1/ns/ghost-7/releases", `{"name":"r","strategy":"universal","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mint: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/v1/ns/ghost-7/query", query); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after mint: %d %s", resp.StatusCode, body)
	}
	if _, ok := s.nsViews.Load("ghost-7"); !ok || cachedViews() != 1 {
		t.Fatalf("query through a live release cached %d views, want ghost-7's alone", cachedViews())
	}
}

// /v1/stats carries no answer-cache section, even after queries: every
// batch is answered from the release's compiled plan.
func TestStatsCacheSection(t *testing.T) {
	ts := newTestServer(t, 2.0)
	if resp, body := postJSON(t, ts, "/v1/releases", `{"name":"r","strategy":"universal","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mint: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/v1/query", `{"name":"r","ranges":[{"lo":0,"hi":8},{"lo":2,"hi":5}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["requests"]; !ok {
		t.Fatalf("stats payload lacks requests: %v", st)
	}
	if c, ok := st["cache"]; ok {
		t.Fatalf("stats payload has a cache section: %s", c)
	}
}

// The 2-D serving surface end to end: mint a universal2d release over
// HTTP, answer rectangle batches through /v1/query2d (and its namespace
// twin), and map the failure modes onto the right status codes.
func TestQuery2DOverHTTP(t *testing.T) {
	cells := [][]float64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	}
	s, err := New(Config{
		Counts: []float64{2, 0, 10, 2},
		Cells:  cells,
		Budget: 5,
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(t *testing.T, path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	for _, prefix := range []string{"/v1", NamespacePath("geo.tenant")} {
		resp, body := post(t, prefix+"/releases", `{"name":"grid","strategy":"universal2d","epsilon":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s mint: %d %s", prefix, resp.StatusCode, body)
		}
		var sr storeReleaseResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Strategy != "universal2d" || sr.Domain != 12 {
			t.Fatalf("%s stored entry = %+v", prefix, sr.storedReleaseInfo)
		}
		// The returned payload decodes client-side into the 2-D type.
		rel, err := dphist.DecodeRelease(sr.Release)
		if err != nil {
			t.Fatal(err)
		}
		rq, ok := rel.(*dphist.Universal2DRelease)
		if !ok {
			t.Fatalf("%s decoded %T", prefix, rel)
		}
		if rq.Width() != 4 || rq.Height() != 3 {
			t.Fatalf("%s decoded grid %dx%d", prefix, rq.Width(), rq.Height())
		}

		resp, body = post(t, prefix+"/query2d",
			`{"name":"grid","rects":[{"x0":0,"y0":0,"x1":4,"y1":3},{"x0":1,"y0":1,"x1":3,"y1":2},{"x0":2,"y0":2,"x1":2,"y1":2}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query2d: %d %s", prefix, resp.StatusCode, body)
		}
		var qr queryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Strategy != "universal2d" || len(qr.Answers) != 3 {
			t.Fatalf("%s query2d response = %+v", prefix, qr)
		}
		// Answers match querying the decoded release offline.
		want, err := dphist.QueryRects(rel, []dphist.RectSpec{
			{X0: 0, Y0: 0, X1: 4, Y1: 3}, {X0: 1, Y0: 1, X1: 3, Y1: 2}, {X0: 2, Y0: 2, X1: 2, Y1: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if qr.Answers[i] != want[i] {
				t.Fatalf("%s answer %d = %v, offline = %v", prefix, i, qr.Answers[i], want[i])
			}
		}
		if qr.Answers[2] != 0 {
			t.Fatalf("%s empty rect answered %v", prefix, qr.Answers[2])
		}
	}

	// Failure modes: unknown name is 404; a 1-D release and a malformed
	// rectangle are the analyst's 400.
	resp, _ := post(t, "/v1/query2d", `{"name":"missing","rects":[{"x1":1,"y1":1}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing name status %d", resp.StatusCode)
	}
	if resp, body := post(t, "/v1/releases", `{"name":"flat","strategy":"laplace","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("flat mint: %d %s", resp.StatusCode, body)
	}
	resp, body := post(t, "/v1/query2d", `{"name":"flat","rects":[{"x1":1,"y1":1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("1-D release query2d status %d: %s", resp.StatusCode, body)
	}
	resp, _ = post(t, "/v1/query2d", `{"name":"grid","rects":[{"x0":3,"y0":0,"x1":1,"y1":1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted rect status %d", resp.StatusCode)
	}
	resp, _ = post(t, "/v1/query2d", `{"rects":[{"x1":1,"y1":1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless query2d status %d", resp.StatusCode)
	}
}

// Dot-segment namespaces are unroutable (clients and proxies normalize
// them away); the scoped handler must refuse any that sneak through as
// escaped segments rather than treating ".." as a tenant.
func TestDotSegmentNamespaceRejected(t *testing.T) {
	ts := newTestServer(t, 1.0)
	for _, ns := range []string{"%2e", "%2e%2e"} {
		resp, err := http.Get(ts.URL + "/v1/ns/" + ns + "/budget")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("namespace %q served with status 200", ns)
		}
	}
	if got := NamespacePath("a b/c"); got != "/v1/ns/a%20b%2Fc" {
		t.Fatalf("NamespacePath escaped to %q", got)
	}
}

// The 2-D acceptance path end to end: a universal2d release minted over
// HTTP into a durable store keeps answering identical rectangle batches
// after the whole stack restarts from disk.
func TestServer2DDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cells := [][]float64{{3, 1, 4, 1}, {5, 9, 2, 6}, {5, 3, 5, 8}, {9, 7, 9, 3}}
	open := func(t *testing.T) (*Server, *dphist.Store) {
		t.Helper()
		store, err := dphist.OpenStore(dir, dphist.WithBudget(2.0))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Counts: []float64{1, 2}, Cells: cells, Seed: 13, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return s, store
	}
	const batch = `{"name":"grid","rects":[{"x0":0,"y0":0,"x1":4,"y1":4},{"x0":1,"y0":2,"x1":3,"y1":4},{"x0":0,"y0":0,"x1":0,"y1":0}]}`
	postJSON := func(t *testing.T, ts *httptest.Server, path, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	s1, store1 := open(t)
	ts1 := httptest.NewServer(s1.Handler())
	postJSON(t, ts1, "/v1/ns/geo/releases", `{"name":"grid","strategy":"universal2d","epsilon":0.5}`, http.StatusOK)
	var before queryResponse
	if err := json.Unmarshal(postJSON(t, ts1, "/v1/ns/geo/query2d", batch, http.StatusOK), &before); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	// Kill without Close: the WAL alone carries the release.
	_ = store1

	s2, store2 := open(t)
	defer store2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var after queryResponse
	if err := json.Unmarshal(postJSON(t, ts2, "/v1/ns/geo/query2d", batch, http.StatusOK), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Answers) != len(before.Answers) {
		t.Fatalf("answer count changed: %d vs %d", len(after.Answers), len(before.Answers))
	}
	for i := range before.Answers {
		if after.Answers[i] != before.Answers[i] {
			t.Fatalf("answer %d drifted across restart: %v vs %v", i, after.Answers[i], before.Answers[i])
		}
	}
	if after.Version != 1 || after.Strategy != "universal2d" {
		t.Fatalf("recovered entry = %+v", after)
	}
}

// A server handed a durable store keeps tenants' releases and ledgers
// across a restart of the whole HTTP stack.
func TestServerDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	counts := []float64{2, 0, 10, 2, 5, 5, 5, 5}
	open := func(t *testing.T) (*Server, *dphist.Store) {
		t.Helper()
		store, err := dphist.OpenStore(dir, dphist.WithBudget(2.0))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Counts: counts, Seed: 7, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		return s, store
	}
	s1, store1 := open(t)
	ts1 := httptest.NewServer(s1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/ns/tenant-a/releases", "application/json",
		bytes.NewBufferString(`{"name":"traffic","strategy":"universal","epsilon":0.75}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mint status %d", resp.StatusCode)
	}
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, store2 := open(t)
	defer store2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/v1/ns/tenant-a/query", "application/json",
		bytes.NewBufferString(`{"name":"traffic","ranges":[{"lo":0,"hi":8}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart query status %d", resp.StatusCode)
	}
	budgetResp, err := http.Get(ts2.URL + "/v1/ns/tenant-a/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer budgetResp.Body.Close()
	var b budgetResponse
	if err := json.NewDecoder(budgetResp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.Spent != 0.75 || b.Total != 2.0 {
		t.Fatalf("post-restart budget = %+v", b)
	}
}
