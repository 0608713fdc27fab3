// Advisor: letting the server pick the strategy. The paper's two
// estimators trade places depending on the workload — L~ wins on point
// queries, the consistent hierarchies win once ranges get wide — and an
// analyst should not have to re-derive Section 4's variance algebra to
// choose. This demo drives "strategy": "auto" over the real HTTP
// surface: the caller describes the queries it intends to run (a
// workload sketch), the advisor predicts the expected error of every
// pipeline, and the mint proceeds with the winner. The response carries
// the full ranked decision so the choice is auditable, and the durable
// journal records the concrete strategy — never the sentinel.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/server"
)

func main() {
	// 256 latency buckets with a heavy head and a long sparse tail —
	// the same shape rangeserver mints by hand.
	counts := make([]float64, 256)
	for i := range counts {
		counts[i] = float64(2000 / (i + 1) % 97)
	}

	srv, err := server.New(server.Config{
		Counts: counts,
		Budget: 2.0,
		Seed:   42,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The server advertises the sentinel alongside the concrete
	// pipelines.
	var sr struct {
		Strategies []string `json:"strategies"`
	}
	getJSON(ts.URL+"/v1/strategies", &sr)
	fmt.Printf("strategies: %v\n\n", sr.Strategies)

	// An analyst planning a dashboard of prefix sums describes that
	// workload and lets the advisor choose. Wide nested ranges reward a
	// consistent hierarchy, so expect a tree strategy to win.
	var minted struct {
		Name            string               `json:"name"`
		Version         int                  `json:"version"`
		Strategy        string               `json:"strategy"`
		Auto            *dphist.AutoDecision `json:"auto"`
		BudgetRemaining float64              `json:"budget_remaining"`
	}
	postJSON(ts.URL+"/v1/releases",
		`{"name":"latency","strategy":"auto","epsilon":0.5,
		  "workload":{"preset":"prefixes"}}`, &minted)
	fmt.Printf("prefix workload minted %q v%d as %s (budget remaining %.2f)\n",
		minted.Name, minted.Version, minted.Strategy, minted.BudgetRemaining)
	fmt.Println("ranked alternatives, winner first:")
	for _, p := range minted.Auto.Alternatives {
		fmt.Printf("  %-15s branching=%d  predicted=%12.1f  (%s)\n",
			p.Strategy, p.Branching, p.PredictedError, p.Confidence)
	}

	// A different caller only ever reads single buckets. Point queries
	// gain nothing from a hierarchy's extra noise per level, so the
	// same endpoint resolves to plain Laplace.
	var point struct {
		Strategy string               `json:"strategy"`
		Auto     *dphist.AutoDecision `json:"auto"`
	}
	postJSON(ts.URL+"/v1/release",
		`{"strategy":"auto","epsilon":0.5,"workload":{"preset":"points"}}`,
		&point)
	fmt.Printf("\npoint workload resolved to %s (predicted %.1f, %s)\n",
		point.Strategy, point.Auto.PredictedError, point.Auto.Confidence)

	// The journal records what was actually minted: a concrete
	// strategy, never "auto". A restart replays this listing, so the
	// decision is as durable as the release itself.
	var listing struct {
		Releases []struct {
			Name     string `json:"name"`
			Strategy string `json:"strategy"`
		} `json:"releases"`
	}
	getJSON(ts.URL+"/v1/releases", &listing)
	for _, r := range listing.Releases {
		fmt.Printf("journaled: %s as %s\n", r.Name, r.Strategy)
	}

	// Operators can watch how often the advisor picks each pipeline.
	var stats struct {
		Requests struct {
			AutoResolved map[string]int64 `json:"auto_resolved"`
		} `json:"requests"`
	}
	getJSON(ts.URL+"/v1/stats", &stats)
	fmt.Printf("auto resolutions by strategy: %v\n", stats.Requests.AutoResolved)
}

func postJSON(url, body string, out any) {
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		panic(fmt.Sprintf("POST %s: %d %s", url, resp.StatusCode, e.Error))
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
