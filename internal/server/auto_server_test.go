package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/dphist/dphist"
)

func decodeAutoResponse(t *testing.T, body []byte) releaseResponse {
	t.Helper()
	var rr releaseResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return rr
}

func TestAutoReleaseOverHTTP(t *testing.T) {
	ts := newTestServer(t, 5.0)
	resp, body := postRelease(t, ts,
		`{"strategy":"auto","epsilon":0.5,"workload":{"preset":"points"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rr := decodeAutoResponse(t, body)
	if rr.Strategy == "auto" {
		t.Fatal("response reports the sentinel, not the resolved strategy")
	}
	if rr.Auto == nil {
		t.Fatalf("no auto decision in response: %s", body)
	}
	if rr.Auto.Strategy != rr.Strategy {
		t.Fatalf("decision strategy %q, response strategy %q", rr.Auto.Strategy, rr.Strategy)
	}
	if len(rr.Auto.Alternatives) < 5 {
		t.Fatalf("only %d alternatives: %s", len(rr.Auto.Alternatives), body)
	}
	// The embedded release decodes client-side and carries the decision.
	rel, err := dphist.DecodeRelease(rr.Release)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := dphist.ReleaseDecision(rel)
	if !ok || dec.Strategy != rr.Strategy {
		t.Fatalf("decoded release decision %+v ok=%v", dec, ok)
	}
	// A direct mint carries no decision block.
	resp, body = postRelease(t, ts, `{"strategy":"laplace","epsilon":0.5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if rr := decodeAutoResponse(t, body); rr.Auto != nil {
		t.Fatalf("direct mint reports auto decision: %s", body)
	}
}

func TestAutoReleaseWithExplicitRangesAndWeights(t *testing.T) {
	ts := newTestServer(t, 5.0)
	resp, body := postRelease(t, ts,
		`{"strategy":"auto","epsilon":0.5,"workload":{"ranges":[{"lo":0,"hi":8,"weight":2},{"lo":2,"hi":5}]}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if rr := decodeAutoResponse(t, body); rr.Auto == nil {
		t.Fatalf("no decision: %s", body)
	}
}

func TestAutoCountOfCountsOverHTTP(t *testing.T) {
	ts := newTestServer(t, 5.0)
	resp, body := postRelease(t, ts,
		`{"strategy":"auto","epsilon":0.5,"workload":{"preset":"count_of_counts"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	rr := decodeAutoResponse(t, body)
	if rr.Auto == nil || rr.Auto.PredictedError <= 0 {
		t.Fatalf("decision %+v", rr.Auto)
	}
}

func TestAutoBadSketchOverHTTP(t *testing.T) {
	ts := newTestServer(t, 5.0)
	cases := []struct {
		name, body string
	}{
		{"no sketch", `{"strategy":"auto","epsilon":0.5}`},
		{"empty sketch", `{"strategy":"auto","epsilon":0.5,"workload":{}}`},
		{"unknown preset", `{"strategy":"auto","epsilon":0.5,"workload":{"preset":"nope"}}`},
		{"range outside domain", `{"strategy":"auto","epsilon":0.5,"workload":{"ranges":[{"lo":0,"hi":999}]}}`},
		{"rects without cells", `{"strategy":"auto","epsilon":0.5,"workload":{"rects":[{"x1":1,"y1":1}]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRelease(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		})
	}
	// Nothing above should have spent budget.
	resp, err := http.Get(ts.URL + "/v1/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br budgetResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Spent != 0 {
		t.Fatalf("bad sketches spent %v", br.Spent)
	}
}

func TestSketchErrorStatusMapping(t *testing.T) {
	var s Server
	rec := httptest.NewRecorder()
	s.writeReleaseError(rec, dphist.ErrBadSketch)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("writeReleaseError(ErrBadSketch) = %d", rec.Code)
	}
}

func TestAutoStoreReleaseJournalsConcrete(t *testing.T) {
	ts := newTestServer(t, 5.0)
	resp, body := postJSON(t, ts, "/v1/releases",
		`{"name":"advised","strategy":"auto","epsilon":0.5,"workload":{"preset":"points"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr storeReleaseResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Strategy == "auto" || sr.Strategy == "" {
		t.Fatalf("stored strategy %q", sr.Strategy)
	}
	if sr.Auto == nil || sr.Auto.Strategy != sr.Strategy {
		t.Fatalf("stored decision %+v for strategy %q", sr.Auto, sr.Strategy)
	}
	// The listing (fed from the store's journal metadata) shows the
	// concrete strategy, never the sentinel.
	resp, err := http.Get(ts.URL + "/v1/releases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Releases []storedReleaseInfo `json:"releases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Releases) != 1 || list.Releases[0].Strategy != sr.Strategy {
		t.Fatalf("listing %+v", list.Releases)
	}
}

func TestAutoOnNamespacedRoutes(t *testing.T) {
	ts := newTestServer(t, 5.0)
	resp, body := postJSON(t, ts, "/v1/ns/tenant1/release",
		`{"strategy":"auto","epsilon":0.5,"workload":{"preset":"points"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if rr := decodeAutoResponse(t, body); rr.Auto == nil {
		t.Fatalf("no decision on namespaced route: %s", body)
	}
	resp, body = postJSON(t, ts, "/v1/ns/tenant1/releases",
		`{"name":"advised","strategy":"auto","epsilon":0.5,"workload":{"preset":"prefixes"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr storeReleaseResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Namespace != "tenant1" || sr.Auto == nil {
		t.Fatalf("stored %+v", sr.storedReleaseInfo)
	}
}

func TestAutoResolutionStats(t *testing.T) {
	ts := newTestServer(t, 10.0)
	for i := 0; i < 3; i++ {
		resp, body := postRelease(t, ts,
			`{"strategy":"auto","epsilon":0.5,"workload":{"preset":"points"}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	// Direct mints must not count as auto resolutions.
	if resp, body := postRelease(t, ts, `{"strategy":"laplace","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, n := range stats.Requests.AutoResolved {
		total += n
	}
	if total != 3 {
		t.Fatalf("auto_resolved %v, want 3 total", stats.Requests.AutoResolved)
	}
	// The points preset resolves deterministically to laplace on this
	// server's counts.
	if stats.Requests.AutoResolved["laplace"] != 3 {
		t.Fatalf("auto_resolved %v", stats.Requests.AutoResolved)
	}
}
