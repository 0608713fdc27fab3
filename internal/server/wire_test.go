package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/dphist/dphist"
)

// --- parser equivalence with encoding/json ---

// checkQueryParse holds parseQueryRequest to json.Unmarshal's observable
// behavior on one input: same accept/reject verdict, and on accept the
// same name and spec sequence.
func checkQueryParse(t *testing.T, data []byte, maxSpecs int) {
	t.Helper()
	var want queryRequest
	jerr := json.Unmarshal(data, &want)
	sc := &queryScratch{body: append([]byte(nil), data...)}
	name, specs, perr := parseQueryRequest(sc, maxSpecs)
	if jerr != nil {
		if perr == nil {
			t.Fatalf("parser accepted %q which encoding/json rejects (%v)", data, jerr)
		}
		return
	}
	if perr != nil {
		t.Fatalf("parser rejected %q which encoding/json accepts: %v", data, perr)
	}
	if name != want.Name {
		t.Fatalf("parse %q: name %q, encoding/json got %q", data, name, want.Name)
	}
	if len(specs) != len(want.Ranges) {
		t.Fatalf("parse %q: %d specs, encoding/json got %d", data, len(specs), len(want.Ranges))
	}
	for i := range specs {
		if specs[i] != want.Ranges[i] {
			t.Fatalf("parse %q: spec %d = %+v, encoding/json got %+v", data, i, specs[i], want.Ranges[i])
		}
	}
}

func checkQuery2DParse(t *testing.T, data []byte, maxSpecs int) {
	t.Helper()
	var want query2DRequest
	jerr := json.Unmarshal(data, &want)
	sc := &queryScratch{body: append([]byte(nil), data...)}
	name, rects, perr := parseQuery2DRequest(sc, maxSpecs)
	if jerr != nil {
		if perr == nil {
			t.Fatalf("2d parser accepted %q which encoding/json rejects (%v)", data, jerr)
		}
		return
	}
	if perr != nil {
		t.Fatalf("2d parser rejected %q which encoding/json accepts: %v", data, perr)
	}
	if name != want.Name {
		t.Fatalf("2d parse %q: name %q, encoding/json got %q", data, name, want.Name)
	}
	if len(rects) != len(want.Rects) {
		t.Fatalf("2d parse %q: %d rects, encoding/json got %d", data, len(rects), len(want.Rects))
	}
	for i := range rects {
		if rects[i] != want.Rects[i] {
			t.Fatalf("2d parse %q: rect %d = %+v, encoding/json got %+v", data, i, rects[i], want.Rects[i])
		}
	}
}

// queryParseCorpus is the deterministic edge-case battery; the fuzz
// target reuses it as its seed corpus.
var queryParseCorpus = []string{
	`{"name":"t","ranges":[{"lo":0,"hi":4}]}`,
	`{"name":"t","ranges":[]}`,
	`{"name":"t"}`,
	`{"ranges":[{"lo":1,"hi":2}]}`,
	`{}`,
	`null`,
	` { "name" : "t" , "ranges" : [ { "lo" : 1 , "hi" : 2 } ] } `,
	// Case-insensitive field matching, as encoding/json folds names.
	`{"NAME":"t","RANGES":[{"LO":1,"HI":2}]}`,
	`{"Name":"t","Ranges":[{"Lo":1,"Hi":2}]}`,
	// Duplicate keys: last value wins, null is a no-op, a shorter
	// duplicate array inherits the longer one's slots on re-growth.
	`{"name":"a","name":"b"}`,
	`{"name":"a","name":null}`,
	`{"ranges":[{"lo":5,"hi":9}],"ranges":[{"hi":1}]}`,
	`{"ranges":[{"lo":5,"hi":9}],"ranges":[null]}`,
	`{"ranges":[{"lo":1,"hi":2},{"lo":3,"hi":4}],"ranges":[{}],"ranges":[{},{}]}`,
	`{"ranges":[{"lo":1,"hi":2}],"ranges":null}`,
	`{"ranges":null}`,
	`{"ranges":null,"ranges":[{"lo":1,"hi":2}]}`,
	`{"ranges":[{"lo":1,"lo":2,"hi":3}]}`,
	// Unknown fields are skipped with full syntactic validation.
	`{"name":"t","extra":{"deep":[1,2,{"x":"y"}]},"ranges":[]}`,
	`{"unknown":01}`,
	`{"unknown":1.5e+30,"name":"t"}`,
	`{"unknown":"𝄞"}`,
	// String escapes: full set, surrogate pairs, lone surrogates,
	// invalid UTF-8 replaced.
	`{"name":"A\n\t\"\\\/\b\f\r"}`,
	`{"name":"𝄞"}`,
	`{"name":"\ud834"}`,
	`{"name":"\ud834A"}`,
	`{"name":"\udd1e\udd1e"}`,
	"{\"name\":\"\xff\xfe\"}",
	"{\"name\":\"caf\xc3\xa9\"}",
	// Integer semantics: strconv.ParseInt as encoding/json applies it.
	`{"ranges":[{"lo":-3,"hi":-1}]}`,
	`{"ranges":[{"lo":0,"hi":9223372036854775807}]}`,
	`{"ranges":[{"lo":-9223372036854775808,"hi":0}]}`,
	`{"ranges":[{"lo":9223372036854775808}]}`,
	`{"ranges":[{"lo":01}]}`,
	`{"ranges":[{"lo":1.0}]}`,
	`{"ranges":[{"lo":1e2}]}`,
	`{"ranges":[{"lo":+1}]}`,
	`{"ranges":[{"lo":-0}]}`,
	`{"ranges":[{"lo":null,"hi":null}]}`,
	// Wrong types and malformed bodies.
	`{"name":5}`,
	`{"name":["a"]}`,
	`{"ranges":{"lo":1}}`,
	`{"ranges":[[1,2]]}`,
	`{"ranges":[true]}`,
	`{"ranges":["x"]}`,
	`true`,
	`"str"`,
	`42`,
	`[]`,
	``,
	`   `,
	`{`,
	`{"name":"t"`,
	`{"name":"t",}`,
	`{"name":"t" "ranges":[]}`,
	`{"name":}`,
	`{"ranges":[{"lo":1,}]}`,
	`{"ranges":[{"lo":1}]}extra`,
	`{"name":"t"}{"name":"u"}`,
	"{\"name\":\"a\x01b\"}",
	`{"name":"\q"}`,
	`{"name":"\u12"}`,
	`{5:1}`,
	`{"":1}`,
	// The exact-shape fast path ({"lo":D,"hi":D}, D of 1-18 digits, no
	// whitespace) and every way a body can leave it for the general
	// parser. Digit counts: 18 digits never overflow; 19 and 20 digits
	// fall back, which accepts int64 and rejects the rest.
	`{"name":"t","ranges":[{"lo":0,"hi":0}]}`,
	`{"ranges":[{"lo":999999999999999999,"hi":999999999999999999}]}`,
	`{"ranges":[{"lo":1000000000000000000,"hi":9223372036854775807}]}`,
	`{"ranges":[{"lo":9999999999999999999,"hi":0}]}`,
	`{"ranges":[{"lo":0,"hi":1000000000000000000}]}`,
	`{"ranges":[{"lo":9223372036854775807,"hi":0}]}`,
	`{"ranges":[{"lo":0,"hi":18446744073709551616}]}`,
	`{"ranges":[{"lo":18446744073709551616,"hi":0}]}`,
	// Number forms the fast path hands on: leading zeros, a fraction or
	// exponent after an exact prefix, negatives.
	`{"ranges":[{"lo":00,"hi":1}]}`,
	`{"ranges":[{"lo":01,"hi":1}]}`,
	`{"ranges":[{"lo":0,"hi":01}]}`,
	`{"ranges":[{"lo":1,"hi":2.0}]}`,
	`{"ranges":[{"lo":1,"hi":2e0}]}`,
	`{"ranges":[{"lo":1E0,"hi":2}]}`,
	`{"ranges":[{"lo":0.5,"hi":2}]}`,
	`{"ranges":[{"lo":-1,"hi":2}]}`,
	`{"ranges":[{"lo":-0,"hi":2}]}`,
	`{"ranges":[{"lo":0,"hi":-1}]}`,
	// A lone 0 followed by a byte other than the separator.
	`{"ranges":[{"lo":0 "hi":1}]}`,
	`{"ranges":[{"lo":1,"hi":0]}]}`,
	// An exact prefix followed by more keys.
	`{"ranges":[{"lo":1,"hi":2,"lo":3}]}`,
	`{"ranges":[{"lo":1,"hi":2,"x":null}]}`,
	`{"ranges":[{"lo":1,"hi":2,"hi":null}]}`,
	// One space in each possible place.
	`{"ranges":[{ "lo":1,"hi":2}]}`,
	`{"ranges":[{"lo" :1,"hi":2}]}`,
	`{"ranges":[{"lo": 1,"hi":2}]}`,
	`{"ranges":[{"lo":1 ,"hi":2}]}`,
	`{"ranges":[{"lo":1, "hi":2}]}`,
	`{"ranges":[{"lo":1,"hi" :2}]}`,
	`{"ranges":[{"lo":1,"hi": 2}]}`,
	`{"ranges":[{"lo":1,"hi":2 }]}`,
	`{"ranges":[{"lo":1,"hi":2} ,{"lo":3,"hi":4}]}`,
	`{"ranges":[{"lo":1,"hi":2}, {"lo":3,"hi":4}]}`,
	// Other key cases and an escaped key.
	`{"ranges":[{"lo":1,"HI":2}]}`,
	`{"ranges":[{"Lo":1,"hi":2}]}`,
	`{"ranges":[{"l\u006f":1,"hi":2}]}`,
	`{"ranges":[{"la":1,"hi":2}]}`,
	`{"ranges":[{"lo":1,"ha":2}]}`,
	`{"ranges":[{"lo_:1,"hi":2}]}`,
	`{"ranges":[{"hi":2,"lo":1}]}`,
	// Truncations inside and right after an exact element.
	`{"ranges":[{"lo":1,"hi":2`,
	`{"ranges":[{"lo":1,"hi":`,
	`{"ranges":[{"lo":12`,
	`{"ranges":[{"lo":0`,
	`{"ranges":[{"lo":0,`,
	`{"ranges":[{"lo":1,"hi":2}`,
	`{"ranges":[{"lo":1,"hi":2},`,
	// Exact and spaced elements alternating in one array.
	`{"ranges":[{"lo":1,"hi":2},{ "lo":3,"hi":4},{"lo":5,"hi":6},{"lo":7 ,"hi":8},{"lo":9,"hi":10},null,{"lo":11,"hi":12}]}`,
	// Duplicate ranges keys: a shorter exact-shaped array decodes over
	// the first array's slots, and a later array re-grows into them.
	`{"ranges":[{"lo":1,"hi":2},{"lo":3,"hi":4},{"lo":5}],"ranges":[{"lo":7,"hi":8}]}`,
	`{"ranges":[{"lo":1,"hi":2},{"lo":3,"hi":4},{"lo":5}],"ranges":[{"lo":7,"hi":8}],"ranges":[{},{},{}]}`,
	`{"ranges":[{"lo":1},{"hi":4}],"ranges":[{"lo":7,"hi":8},{"lo":9,"hi":10}],"ranges":[{"hi":11},{}]}`,
}

// rectParseCorpus is queryParseCorpus for rectangle-shaped bodies; the
// fuzz target seeds its 2-D half with it too.
var rectParseCorpus = []string{
	`{"name":"g","rects":[{"x0":0,"y0":0,"x1":2,"y1":2}]}`,
	`{"name":"g","rects":[{"X0":1,"Y1":3}]}`,
	`{"rects":[{"x0":1,"x0":2}],"rects":[{}]}`,
	`{"rects":[{"x0":"no"}]}`,
	`{"rects":[null,{"y0":1}]}`,
	// The exact shape, and the ways a body leaves it.
	`{"name":"g","rects":[{"x0":1,"y0":2,"x1":3,"y1":4},{"x0":0,"y0":0,"x1":999999999999999999,"y1":10}]}`,
	`{"rects":[{"y0":2,"x0":1,"x1":3,"y1":4}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":4,"x0":9}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":1000000000000000000}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":18446744073709551616}]}`,
	`{"rects":[{"x0":1,"y0":02,"x1":3,"y1":4}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":-3,"y1":4}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":4.0}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1" :3,"y1":4}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"Y1":4}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"yy":4}]}`,
	`{"rects":[{"x0":0 "y0":0,"x1":1,"y1":1}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":4`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":4},{ "x0":5,"y0":6,"x1":7,"y1":8},{"x0":9,"y0":9,"x1":9,"y1":9}]}`,
	`{"rects":[{"x0":1,"y0":2,"x1":3,"y1":4},{"x1":5}],"rects":[{"x0":7,"y0":7,"x1":8,"y1":8}],"rects":[{},{}]}`,
}

func TestQueryParseEquivalenceCorpus(t *testing.T) {
	for _, in := range queryParseCorpus {
		checkQueryParse(t, []byte(in), maxQueryRanges)
		checkQuery2DParse(t, []byte(in), maxQueryRanges)
	}
	for _, in := range rectParseCorpus {
		checkQuery2DParse(t, []byte(in), maxQueryRanges)
	}
}

// FuzzQueryRequestParse is the acceptance bar for the hand-rolled
// parser: on every input it must agree with encoding/json — accept the
// same bodies, produce the same name and specs, reject the rest — and
// never panic. The twoD flag exercises the rect-shaped twin.
func FuzzQueryRequestParse(f *testing.F) {
	for _, in := range queryParseCorpus {
		f.Add([]byte(in), false)
		f.Add([]byte(in), true)
	}
	for _, in := range rectParseCorpus {
		f.Add([]byte(in), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, twoD bool) {
		// The route cap is part of the handler, not the grammar; lift it
		// so equivalence is judged against plain json.Unmarshal.
		if twoD {
			checkQuery2DParse(t, data, math.MaxInt)
		} else {
			checkQueryParse(t, data, math.MaxInt)
		}
	})
}

// --- response encoding equivalence ---

func TestAppendQueryResponseMatchesEncodingJSON(t *testing.T) {
	entries := []dphist.StoreEntry{
		{Namespace: "default", Name: "traffic", Version: 3, Strategy: dphist.StrategyUniversal},
		{Namespace: "geo.analytics", Name: "a<b>&  é\x80", Version: 0, Strategy: dphist.StrategyLaplace},
	}
	batches := [][]float64{
		{},
		{0, 1, -1, 2.5},
		{1e21, -1e21, 9.5e20, 1e-6, 9.9e-7, -1e-7, 0.1, 1.0 / 3.0},
		{math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0},
	}
	for _, e := range entries {
		for _, answers := range batches {
			got, err := appendQueryResponse(nil, e, answers)
			if err != nil {
				t.Fatalf("appendQueryResponse(%v): %v", answers, err)
			}
			if answers == nil {
				answers = []float64{}
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(queryResponse{
				Namespace: e.Namespace,
				Name:      e.Name,
				Version:   e.Version,
				Strategy:  e.Strategy.String(),
				Answers:   answers,
			}); err != nil {
				t.Fatal(err)
			}
			if string(got) != buf.String() {
				t.Fatalf("wire bytes diverge from encoding/json:\n got %q\nwant %q", got, buf.String())
			}
		}
	}
	if _, err := appendQueryResponse(nil, entries[0], []float64{math.NaN()}); err == nil {
		t.Fatal("NaN answer encoded without error")
	}
	if _, err := appendQueryResponse(nil, entries[0], []float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf answer encoded without error")
	}
}

// --- HTTP-level malformed requests: 400 with a spec index ---

func TestQueryMalformedRequests(t *testing.T) {
	ts := newTestServer(t, 2.0)
	if resp, body := postJSON(t, ts, "/v1/releases",
		`{"name":"t","strategy":"universal","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mint: %d %s", resp.StatusCode, body)
	}
	cases := []struct {
		name, body, wantSub string
	}{
		{"truncated body", `{"name":"t","ranges":[{"lo":0,`, "malformed request"},
		{"truncated string", `{"name":"t`, "malformed request"},
		{"wrong name type", `{"name":5,"ranges":[]}`, "malformed request"},
		{"wrong ranges type", `{"name":"t","ranges":{"lo":1}}`, "expected array"},
		{"wrong spec type", `{"name":"t","ranges":[42]}`, "ranges[0]"},
		{"bad field type with index", `{"name":"t","ranges":[{"lo":0,"hi":4},{"lo":"x"}]}`, "ranges[1].lo"},
		{"float in int field", `{"name":"t","ranges":[{"lo":0,"hi":1.5}]}`, "ranges[0].hi"},
		{"trailing garbage", `{"name":"t","ranges":[]}extra`, "after top-level value"},
		{"oversize batch", oversizeBatch("ranges", `{"lo":0,"hi":1}`), "exceeds limit"},
		{"semantically invalid spec index", `{"name":"t","ranges":[{"lo":0,"hi":4},{"lo":3,"hi":1}]}`, "query 1"},
	}
	// /v1/query2d shares the grammar and must name its own key, element
	// index and field in the same places.
	ts2D := httptest.NewServer(newEveryStrategyServer(t).Handler())
	defer ts2D.Close()
	if resp, body := postJSON(t, ts2D, "/v1/releases",
		`{"name":"g","strategy":"universal2d","epsilon":0.5}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("mint: %d %s", resp.StatusCode, body)
	}
	rectCases := []struct {
		name, body, wantSub string
	}{
		{"bad field type with index", `{"name":"g","rects":[{"x0":0,"y0":0,"x1":1,"y1":1},{"x0":"x"}]}`, "rects[1].x0"},
		{"float in int field", `{"name":"g","rects":[{"x0":0,"y0":0,"x1":1,"y1":1.5}]}`, "rects[0].y1"},
		{"wrong rects type", `{"name":"g","rects":{"x0":1}}`, "rects: expected array"},
		{"wrong spec type", `{"name":"g","rects":[42]}`, "rects[0]: expected object"},
		{"trailing garbage", `{"name":"g","rects":[]}extra`, "after top-level value"},
		{"oversize batch", oversizeBatch("rects", `{"x0":0,"y0":0,"x1":1,"y1":1}`), "exceeds limit"},
		{"semantically invalid spec index", `{"name":"g","rects":[{"x0":0,"y0":0,"x1":1,"y1":1},{"x0":2,"y0":0,"x1":1,"y1":1}]}`, "query 1"},
	}
	for _, route := range []struct {
		ts    *httptest.Server
		path  string
		cases []struct{ name, body, wantSub string }
	}{{ts, "/v1/query", cases}, {ts2D, "/v1/query2d", rectCases}} {
		for _, tc := range route.cases {
			resp, body := postJSON(t, route.ts, route.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", route.path, tc.name, resp.StatusCode, body)
				continue
			}
			if !strings.Contains(string(body), tc.wantSub) {
				t.Errorf("%s %s: body %q does not mention %q", route.path, tc.name, body, tc.wantSub)
			}
		}
	}
	// Duplicate keys are legal JSON: last value wins, like encoding/json.
	resp, body := postJSON(t, ts, "/v1/query",
		`{"name":"zzz","name":"t","ranges":[{"lo":9,"hi":9}],"ranges":[{"lo":0,"hi":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate keys: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Name != "t" || len(qr.Answers) != 1 {
		t.Fatalf("duplicate keys answered %+v", qr)
	}
}

// oversizeBatch returns a body whose field array holds one elem more
// than maxQueryRanges.
func oversizeBatch(field, elem string) string {
	var b strings.Builder
	b.WriteString(`{"name":"t","` + field + `":[`)
	for i := 0; i <= maxQueryRanges; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(elem)
	}
	b.WriteString(`]}`)
	return b.String()
}

// --- pooled buffers must not alias across requests ---

// TestQueryScratchNoAliasing replays the same request between other
// requests with different shapes and asserts byte-identical responses:
// if any pooled buffer leaked state between requests, the replay would
// see it.
func TestQueryScratchNoAliasing(t *testing.T) {
	ts := newTestServer(t, 4.0)
	for _, mint := range []string{
		`{"name":"alpha","strategy":"universal","epsilon":0.5}`,
		`{"name":"beta","strategy":"laplace","epsilon":0.5}`,
	} {
		if resp, body := postJSON(t, ts, "/v1/releases", mint); resp.StatusCode != http.StatusOK {
			t.Fatalf("mint: %d %s", resp.StatusCode, body)
		}
	}
	reqA := `{"name":"alpha","ranges":[{"lo":0,"hi":8},{"lo":2,"hi":4}]}`
	_, first := postJSON(t, ts, "/v1/query", reqA)
	baseline := string(first)
	interleaved := []string{
		`{"name":"beta","ranges":[{"lo":0,"hi":1},{"lo":1,"hi":2},{"lo":2,"hi":3},{"lo":3,"hi":8}]}`,
		`{"name":"beta","ranges":[]}`,
		`{"name":"alpha","ranges":[{"lo":7,"hi":8}]}`,
		`{"name":"nosuch","ranges":[{"lo":0,"hi":1}]}`,
		`{"name":"alpha","ranges":[{"lo":"bad"}]}`,
	}
	for i := 0; i < 3; i++ {
		for _, other := range interleaved {
			postJSON(t, ts, "/v1/query", other)
		}
		if _, replay := postJSON(t, ts, "/v1/query", reqA); string(replay) != baseline {
			t.Fatalf("replayed response diverged after interleaved traffic:\n got %q\nwant %q", replay, baseline)
		}
	}
}

// --- concurrent query storm (run with -race) ---

// TestConcurrentQueryStorm drives one server with concurrent 1-D
// queries, re-mints of the queried name, ingest batches into the
// pipeline that shares its store, and 2-D queries. Every reply must
// carry its expected status, and every re-mint must land.
func TestConcurrentQueryStorm(t *testing.T) {
	ts, _, _ := newIngestServer(t, nil)
	for _, mint := range []string{
		`{"name":"t","strategy":"universal","epsilon":0.5}`,
		`{"name":"grid","strategy":"universal2d","epsilon":0.5}`,
	} {
		if resp, body := postJSON(t, ts, "/v1/releases", mint); resp.StatusCode != http.StatusOK {
			t.Fatalf("mint: %d %s", resp.StatusCode, body)
		}
	}
	type call struct {
		path, payload string
		status        int
	}
	queries := []call{
		{"/v1/query", `{"name":"t","ranges":[{"lo":0,"hi":8}]}`, http.StatusOK},
		{"/v1/query", `{"name":"t","ranges":[{"lo":1,"hi":2},{"lo":3,"hi":7}]}`, http.StatusOK},
		{"/v1/query", `{"name":"t","ranges":[]}`, http.StatusOK},
		{"/v1/query", `{"name":"missing","ranges":[{"lo":0,"hi":1}]}`, http.StatusNotFound},
		{"/v1/query", `{"name":"t","ranges":[{"lo":"x"}]}`, http.StatusBadRequest},
		{"/v1/query", `{"name":"t","ranges":[{"lo":5,"hi":2}]}`, http.StatusBadRequest},
	}
	// Re-mints swap the plan the query workers read, alternating
	// strategies so consecutive versions differ in shape.
	remints := []call{
		{"/v1/releases", `{"name":"t","strategy":"laplace","epsilon":0.01}`, http.StatusOK},
		{"/v1/releases", `{"name":"t","strategy":"universal","epsilon":0.01}`, http.StatusOK},
	}
	ingests := []call{
		{"/v1/ingest", `{"events":[{"stream":"clicks","bucket":1},{"stream":"views","bucket":7,"weight":3}]}`, http.StatusOK},
		{"/v1/ingest", `{"events":[{"stream":"clicks","bucket":99}]}`, http.StatusOK}, // dropped, not refused
		{"/v1/ingest", `{"events":[]}`, http.StatusBadRequest},
	}
	rects := []call{
		{"/v1/query2d", `{"name":"grid","rects":[{"x0":0,"y0":0,"x1":4,"y1":2}]}`, http.StatusOK},
		{"/v1/query2d", `{"name":"grid","rects":[{"x0":1,"y0":0,"x1":3,"y1":1},{"x0":2,"y0":1,"x1":2,"y1":1}]}`, http.StatusOK},
		{"/v1/query2d", `{"name":"t","rects":[{"x1":1,"y1":1}]}`, http.StatusBadRequest},
	}
	const perWorker = 40
	pools := []struct {
		calls   []call
		workers int
	}{{queries, 8}, {remints, 2}, {ingests, 2}, {rects, 2}}
	var wg sync.WaitGroup
	for _, p := range pools {
		for w := 0; w < p.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c := p.calls[(w+i)%len(p.calls)]
					resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.payload))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != c.status {
						t.Errorf("%s %q: status %d, want %d", c.path, c.payload, resp.StatusCode, c.status)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	resp, body := postJSON(t, ts, "/v1/query", `{"name":"t","ranges":[{"lo":0,"hi":8}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after storm: %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2*perWorker; qr.Version != want { // the first mint plus both re-mint workers' mints
		t.Fatalf("version after storm = %d, want %d", qr.Version, want)
	}
}

// --- encode-failure accounting (satellite: writeJSON no longer silent) ---

func TestWriteJSONEncodeFailureCounted(t *testing.T) {
	var s Server
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]any{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value got status %d, want 500", rec.Code)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("error reply is not valid JSON: %q", rec.Body.String())
	}
	if got := s.encodeErrors.Load(); got != 1 {
		t.Fatalf("encodeErrors = %d, want 1", got)
	}
}

// --- allocation accounting: pooled path vs the reflection path ---

// reflectionHandleQuery reconstructs the pre-wire.go hot path —
// json.NewDecoder reflection decode, fresh slices, json.NewEncoder
// response — as the comparison baseline for the ≥5x allocation
// acceptance bar.
func reflectionHandleQuery(s *Server, w http.ResponseWriter, r *http.Request, ns string) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if req.Name == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "name is required"})
		return
	}
	answers, entry, err := s.store.Namespace(ns).Query(req.Name, req.Ranges)
	if err != nil {
		s.serveQueryError(w, err)
		return
	}
	if answers == nil {
		answers = []float64{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(queryResponse{
		Namespace: entry.Namespace,
		Name:      entry.Name,
		Version:   entry.Version,
		Strategy:  entry.Strategy.String(),
		Answers:   answers,
	})
}

// nullResponseWriter discards the response; allocation runs must not
// charge the handler for recorder bookkeeping.
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header, 2)
	}
	return w.h
}
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// replayBody is an in-place resettable request body.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
func (b *replayBody) Close() error { return nil }

// newQueryBenchServer builds a direct (no network) server over a
// side x side grid whose cells, read row by row, are also the 1-D counts
// (domain side²), and mints universal "t", laplace "p" and universal2d
// "grid" releases. It returns the server and its handler.
func newQueryBenchServer(tb testing.TB, side int) (*Server, http.Handler) {
	tb.Helper()
	counts := make([]float64, side*side)
	cells := make([][]float64, side)
	for i := range counts {
		counts[i] = float64(i % 17)
	}
	for y := range cells {
		cells[y] = counts[y*side : y*side+side]
	}
	s, err := New(Config{Counts: counts, Cells: cells, Budget: 10, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	for _, mint := range []string{
		`{"name":"t","strategy":"universal","epsilon":0.5}`,
		`{"name":"p","strategy":"laplace","epsilon":0.5}`,
		`{"name":"grid","strategy":"universal2d","epsilon":0.5}`,
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/releases", strings.NewReader(mint))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("mint: %d %s", rec.Code, rec.Body.String())
		}
	}
	return s, h
}

func queryHTTPRequest(path, payload string) (*http.Request, *replayBody) {
	body := &replayBody{data: []byte(payload)}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Body = body
	req.ContentLength = int64(len(body.data))
	return req, body
}

const benchQueryBody = `{"name":"t","ranges":[{"lo":0,"hi":256},{"lo":17,"hi":42},{"lo":3,"hi":200},{"lo":128,"hi":129}]}`
const benchQuery2DBody = `{"name":"grid","rects":[{"x0":0,"y0":0,"x1":16,"y1":16},{"x0":2,"y0":3,"x1":9,"y1":11}]}`

// Bulk bodies have the size and shape of the serving benchmark's
// read-bulk requests: bulkSpecs distinct uniform specs over domain
// bulkSide² or a bulkSide x bulkSide grid, in the bytes json.Marshal
// writes for the spec slices.
const (
	bulkSpecs = 10000
	bulkSide  = 32
)

// bulkRangeBody returns a /v1/query body for release name.
func bulkRangeBody(tb testing.TB, name string) string {
	rng := rand.New(rand.NewPCG(1, 2))
	seen := make(map[dphist.RangeSpec]bool, bulkSpecs)
	specs := make([]dphist.RangeSpec, 0, bulkSpecs)
	for len(specs) < bulkSpecs {
		lo, hi := bulkInterval(rng, bulkSide*bulkSide)
		if s := (dphist.RangeSpec{Lo: lo, Hi: hi}); !seen[s] {
			seen[s] = true
			specs = append(specs, s)
		}
	}
	return bulkBody(tb, name, "ranges", specs)
}

// bulkRectBody returns a /v1/query2d body for release name.
func bulkRectBody(tb testing.TB, name string) string {
	rng := rand.New(rand.NewPCG(3, 4))
	seen := make(map[dphist.RectSpec]bool, bulkSpecs)
	rects := make([]dphist.RectSpec, 0, bulkSpecs)
	for len(rects) < bulkSpecs {
		x0, x1 := bulkInterval(rng, bulkSide)
		y0, y1 := bulkInterval(rng, bulkSide)
		if r := (dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1}); !seen[r] {
			seen[r] = true
			rects = append(rects, r)
		}
	}
	return bulkBody(tb, name, "rects", rects)
}

// bulkInterval draws a non-empty half-open interval of [0, n].
func bulkInterval(rng *rand.Rand, n int) (int, int) {
	a, b := rng.IntN(n+1), rng.IntN(n+1)
	for a == b {
		b = rng.IntN(n + 1)
	}
	return min(a, b), max(a, b)
}

func bulkBody(tb testing.TB, name, field string, specs any) string {
	tb.Helper()
	data, err := json.Marshal(map[string]any{"name": name, field: specs})
	if err != nil {
		tb.Fatal(err)
	}
	return string(data)
}

// TestServerQueryAllocs is the wire layer's allocation gate: the pooled
// hot path stays within ~1 amortized allocation per request (plus the
// per-request header write every path pays) and beats the reflection
// path by at least 5x. Bulk batches add the batch pool's fan-out and
// nothing else: parsing 10,000 specs allocates nothing.
func TestServerQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is meaningless under -short's first-run pools")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates per request; counts are unrepresentative")
	}
	allocs := func(h http.Handler, path, payload string) float64 {
		req, body := queryHTTPRequest(path, payload)
		w := &nullResponseWriter{}
		// Warm the pools and the name memo.
		for i := 0; i < 8; i++ {
			body.off = 0
			h.ServeHTTP(w, req)
		}
		return testing.AllocsPerRun(400, func() {
			body.off = 0
			h.ServeHTTP(w, req)
		})
	}
	s, h := newQueryBenchServer(t, 16)
	pooled := allocs(h, "/v1/query", benchQueryBody)

	reflReq, reflBody := queryHTTPRequest("/v1/query", benchQueryBody)
	reflW := &nullResponseWriter{}
	refl := testing.AllocsPerRun(400, func() {
		reflBody.off = 0
		reflectionHandleQuery(s, reflW, reflReq, dphist.DefaultNamespace)
	})

	t.Logf("allocs/request: pooled=%.1f reflection=%.1f", pooled, refl)
	// Budget: the Content-Type header set is ~1 alloc on every path;
	// everything else is pooled. 2.5 leaves room for rare pool misses.
	if pooled > 2.5 {
		t.Errorf("pooled query path allocates %.1f/request, want <= 2.5", pooled)
	}
	if refl < 5*pooled {
		t.Errorf("reflection path allocates %.1f/request vs pooled %.1f: less than the 5x the rework claims", refl, pooled)
	}

	// Bulk batches: the header plus, per batch, the fan-out's closure
	// and WaitGroup when the batch pool has more than one worker.
	_, bulk := newQueryBenchServer(t, bulkSide)
	const maxBulk = 3
	for _, tc := range []struct{ path, body string }{
		{"/v1/query", bulkRangeBody(t, "t")},
		{"/v1/query2d", bulkRectBody(t, "grid")},
	} {
		got := allocs(bulk, tc.path, tc.body)
		t.Logf("%s, %d specs: %.1f allocs/request", tc.path, bulkSpecs, got)
		if got > maxBulk {
			t.Errorf("%s with %d specs allocates %.1f/request, want <= %d", tc.path, bulkSpecs, got, maxBulk)
		}
	}
}

// benchServe times ServeHTTP on one replayed request.
func benchServe(b *testing.B, h http.Handler, path, payload string) {
	req, body := queryHTTPRequest(path, payload)
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
}

// BenchmarkServerQueryHTTP times /v1/query through ServeHTTP on a
// small batch and on bulk batches against a tree-offset (universal) and
// a prefix (laplace) plan; its parse-only case times the request parser
// alone on the same bulk body, with SetBytes giving the rate in MB/s.
func BenchmarkServerQueryHTTP(b *testing.B) {
	b.Run("batch=4", func(b *testing.B) {
		_, h := newQueryBenchServer(b, 16)
		benchServe(b, h, "/v1/query", benchQueryBody)
	})
	_, h := newQueryBenchServer(b, bulkSide)
	body := bulkRangeBody(b, "t")
	b.Run(fmt.Sprintf("universal/batch=%d", bulkSpecs), func(b *testing.B) {
		benchServe(b, h, "/v1/query", body)
	})
	b.Run(fmt.Sprintf("laplace/batch=%d", bulkSpecs), func(b *testing.B) {
		benchServe(b, h, "/v1/query", bulkRangeBody(b, "p"))
	})
	b.Run(fmt.Sprintf("parse-only/batch=%d", bulkSpecs), func(b *testing.B) {
		benchParse(b, body, func(sc *queryScratch) error {
			_, _, err := parseQueryRequest(sc, maxQueryRanges)
			return err
		})
	})
}

// BenchmarkServerQuery2DHTTP is BenchmarkServerQueryHTTP for
// /v1/query2d against a quadtree-offset (universal2d) plan.
func BenchmarkServerQuery2DHTTP(b *testing.B) {
	b.Run("batch=2", func(b *testing.B) {
		_, h := newQueryBenchServer(b, 16)
		benchServe(b, h, "/v1/query2d", benchQuery2DBody)
	})
	_, h := newQueryBenchServer(b, bulkSide)
	body := bulkRectBody(b, "grid")
	b.Run(fmt.Sprintf("universal2d/batch=%d", bulkSpecs), func(b *testing.B) {
		benchServe(b, h, "/v1/query2d", body)
	})
	b.Run(fmt.Sprintf("parse-only/batch=%d", bulkSpecs), func(b *testing.B) {
		benchParse(b, body, func(sc *queryScratch) error {
			_, _, err := parseQuery2DRequest(sc, maxQueryRanges)
			return err
		})
	})
}

// benchParse times parse on body alone, reporting bytes per second.
func benchParse(b *testing.B, body string, parse func(*queryScratch) error) {
	sc := &queryScratch{body: []byte(body)}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := parse(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerQueryHTTPReflection is the pre-rework wire path, kept
// runnable so the win stays measurable in CI output.
func BenchmarkServerQueryHTTPReflection(b *testing.B) {
	s, _ := newQueryBenchServer(b, 16)
	req, body := queryHTTPRequest("/v1/query", benchQueryBody)
	w := &nullResponseWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		reflectionHandleQuery(s, w, req, dphist.DefaultNamespace)
	}
}
