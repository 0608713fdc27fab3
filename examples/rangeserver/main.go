// Rangeserver: the serving side of the paper. A data owner mints a
// universal histogram ONCE (one budget charge) and then answers
// unlimited range queries against it — the paper's Theorem 4 point is
// precisely that a consistent hierarchy makes every such query accurate,
// so the economics of a deployment are mint-rarely, query-forever.
//
// The demo drives the real HTTP surface: POST /v1/releases stores a
// named release, GET /v1/releases lists it, and POST /v1/query answers
// a batch of ranges in one round trip without touching the budget.
// A second act kills and reopens a durable store to show the other half
// of the economics: the budget ledger survives the process, so a
// restart can neither lose the minted release nor re-spend its epsilon.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/server"
)

func main() {
	// A synthetic day of requests over 256 latency buckets: heavy head,
	// long sparse tail.
	counts := make([]float64, 256)
	for i := range counts {
		counts[i] = float64(2000 / (i + 1) % 97)
	}

	srv, err := server.New(server.Config{
		Counts: counts,
		Budget: 1.0,
		Seed:   42,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Mint and retain one universal release: the only budget charge in
	// this whole program.
	var minted struct {
		Name            string  `json:"name"`
		Version         int     `json:"version"`
		Strategy        string  `json:"strategy"`
		BudgetRemaining float64 `json:"budget_remaining"`
	}
	postJSON(ts.URL+"/v1/releases",
		`{"name":"latency","strategy":"universal","epsilon":0.5}`, &minted)
	fmt.Printf("minted %q v%d (%s), budget remaining %.2f\n",
		minted.Name, minted.Version, minted.Strategy, minted.BudgetRemaining)

	// The store knows what it holds.
	var listing struct {
		Releases []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
			Domain  int    `json:"domain"`
		} `json:"releases"`
	}
	getJSON(ts.URL+"/v1/releases", &listing)
	for _, r := range listing.Releases {
		fmt.Printf("stored: %s v%d over domain %d\n", r.Name, r.Version, r.Domain)
	}

	// A batch of range queries — wide, narrow, and empty — answered in
	// one round trip, free of privacy cost.
	specs := []dphist.RangeSpec{
		{Lo: 0, Hi: 256}, {Lo: 0, Hi: 16}, {Lo: 16, Hi: 64}, {Lo: 64, Hi: 256}, {Lo: 128, Hi: 128},
	}
	payload, err := json.Marshal(map[string]any{"name": "latency", "ranges": specs})
	if err != nil {
		panic(err)
	}
	var answered struct {
		Answers []float64 `json:"answers"`
	}
	postJSON(ts.URL+"/v1/query", string(payload), &answered)
	fmt.Println("\nrange          private    true")
	for i, q := range specs {
		truth := 0.0
		for _, v := range counts[q.Lo:q.Hi] {
			truth += v
		}
		fmt.Printf("[%3d,%3d)  %9.0f  %6.0f\n", q.Lo, q.Hi, answered.Answers[i], truth)
	}

	// Embedding callers skip HTTP entirely: the same store is a library
	// value, and budget inspection shows querying spent nothing.
	direct, entry, err := srv.Store().Query("latency", specs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\ndirect store query of %q v%d agrees: %v\n",
		entry.Name, entry.Version, direct[0] == answered.Answers[0])
	fmt.Printf("budget spent %.2f of %.2f — all queries were free\n",
		srv.Session().Accountant().Spent(), srv.Session().Accountant().Total())

	// Act two: durability. Open a file-backed store, mint into a tenant
	// namespace, crash (no Close), and reopen: the release answers
	// identically and the ledger still shows the spend.
	dir, err := os.MkdirTemp("", "rangeserver-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := dphist.OpenStore(dir, dphist.WithBudget(1.0))
	if err != nil {
		panic(err)
	}
	acme := store.Namespace("acme")
	session, err := acme.Session(dphist.MustNew(dphist.WithSeed(42)))
	if err != nil {
		panic(err)
	}
	if _, _, err := acme.Mint(session, "latency", dphist.Request{
		Counts: counts, Epsilon: 0.5}); err != nil {
		panic(err)
	}
	before, _, err := acme.Query("latency", specs)
	if err != nil {
		panic(err)
	}
	// "Crash": abandon the store without Close — the write-ahead log
	// alone carries the state.
	reopened, err := dphist.OpenStore(dir, dphist.WithBudget(1.0))
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	after, _, err := reopened.Namespace("acme").Query("latency", specs)
	if err != nil {
		panic(err)
	}
	same := true
	for i := range before {
		same = same && before[i] == after[i]
	}
	fmt.Printf("\nafter kill-and-restart: answers identical %v, namespace %q spent %.2f of %.2f\n",
		same, "acme", reopened.Namespace("acme").Accountant().Spent(),
		reopened.Namespace("acme").Accountant().Total())
}

func postJSON(url, body string, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("%s: %s", url, resp.Status))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		panic(err)
	}
}
