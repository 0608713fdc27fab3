// Continual release: the streaming deployment of the paper's serving
// asymmetry. Events POST to /v1/ingest as they happen; on an epoch
// schedule the pipeline drains its shards and mints each stream's
// histogram as a versioned release ("clicks@epoch-1", "clicks@epoch-2",
// ...) through the normal budgeted path, with "clicks@window" — the
// budget-free sum of the last W epochs (parallel composition: each
// event lands in exactly one epoch) — tracking the recent past. Between
// mints, a per-bucket continual counter (Chan et al., the streaming
// relative of the paper's H query) answers /v1/ingest/live with private
// running totals.
//
// The final act is the paper's inference idea applied retrospectively:
// a running count never decreases, so projecting a counter's released
// estimates onto non-decreasing sequences tightens them at zero privacy
// cost.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/ingest"
	"github.com/dphist/dphist/internal/server"
)

const domain = 64 // buckets per stream

func main() {
	// One store serves both sides: the ingest pipeline mints into it,
	// the HTTP read path queries out of it.
	store := dphist.NewStore(dphist.WithBudget(10))
	pipe, err := ingest.New(ingest.Config{
		Store:       store,
		Mechanism:   dphist.MustNew(dphist.WithSeed(7)),
		Domain:      domain,
		Epoch:       time.Hour, // this demo mints explicitly, not on the clock
		Epsilon:     0.5,       // charged per epoch mint
		Window:      3,         // "clicks@window" = last 3 epochs, free
		Shards:      4,
		LiveEpsilon: 2.0,     // one per-stream charge for the live surface
		LiveHorizon: 1 << 12, // short horizon = fewer dyadic levels = less live noise
		Seed:        99,
	})
	if err != nil {
		panic(err)
	}
	pipe.Start()
	defer pipe.Close()

	srv, err := server.New(server.Config{
		Counts:   make([]float64, domain), // the one-shot routes need a dataset; unused here
		Store:    store,
		Seed:     42,
		Ingester: pipe,
	})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Act 1: three "days" of click traffic, one epoch each. Every event
	// is POSTed over the wire; each day ends with an epoch mint.
	rng := rand.New(rand.NewPCG(1, 2))
	for day := 1; day <= 3; day++ {
		posted := 0
		for batch := 0; batch < 20; batch++ {
			events := make([]map[string]any, 50)
			for i := range events {
				// Traffic drifts right as the days pass.
				bucket := (rng.IntN(domain/2) + (day-1)*8) % domain
				events[i] = map[string]any{"stream": "clicks", "bucket": bucket}
			}
			body, _ := json.Marshal(map[string]any{"events": events})
			var reply struct {
				Accepted int `json:"accepted"`
			}
			postJSON(ts.URL+"/v1/ingest", string(body), &reply)
			posted += reply.Accepted
		}
		// Mid-day, the live surface already knows the running totals.
		if day == 1 {
			var live struct {
				Counts []float64 `json:"counts"`
			}
			postJSON(ts.URL+"/v1/ingest/live", `{"stream":"clicks","buckets":[0,8,16]}`, &live)
			fmt.Printf("day 1 live counts (buckets 0/8/16, between mints): %.0f %.0f %.0f\n",
				live.Counts[0], live.Counts[1], live.Counts[2])
		}
		// The epoch tick (here: explicit, so the demo is deterministic).
		if _, err := pipe.Flush(); err != nil {
			panic(err)
		}
		fmt.Printf("day %d: %d events absorbed, epoch %d minted\n", day, posted, day)
	}

	// Act 2: the minted epochs are ordinary stored releases — query them
	// over the wire, spending nothing.
	total := func(name string) float64 {
		var reply struct {
			Answers []float64 `json:"answers"`
		}
		postJSON(ts.URL+"/v1/query",
			fmt.Sprintf(`{"name":%q,"ranges":[{"lo":0,"hi":%d}]}`, name, domain), &reply)
		return reply.Answers[0]
	}
	for day := 1; day <= 3; day++ {
		fmt.Printf("total(%s) = %.0f\n", ingest.EpochName("clicks", day), total(ingest.EpochName("clicks", day)))
	}
	fmt.Printf("total(%s) = %.0f (latest epoch alias)\n", ingest.LatestName("clicks"), total(ingest.LatestName("clicks")))
	fmt.Printf("total(%s) = %.0f (3-epoch sum, zero extra budget)\n", ingest.WindowName("clicks"), total(ingest.WindowName("clicks")))
	var budget struct {
		Spent     float64 `json:"spent"`
		Remaining float64 `json:"remaining"`
	}
	getJSON(ts.URL+"/v1/budget", &budget)
	fmt.Printf("budget: spent %.1f (3 epochs x 0.5 + live 2.0), remaining %.1f; queries and windows were free\n\n",
		budget.Spent, budget.Remaining)

	// Act 3: the paper's inference idea on a standalone counter — a
	// running count never decreases, so isotonic projection of the
	// released estimates is free accuracy.
	const horizon = 4096
	counter, err := dphist.MustNew(dphist.WithSeed(5)).NewCounter(1.0, horizon)
	if err != nil {
		panic(err)
	}
	truth := make([]float64, horizon)
	running := 0.0
	for t := 0; t < horizon; t++ {
		var inc float64
		switch {
		case t < 1000: // quiet
			if rng.Float64() < 0.05 {
				inc = 1
			}
		case t < 1500: // flash crowd
			inc = float64(rng.IntN(4))
		default: // steady
			if rng.Float64() < 0.3 {
				inc = 1
			}
		}
		running += inc
		truth[t] = running
		if _, err := counter.Feed(inc); err != nil {
			panic(err)
		}
	}
	raw := counter.Estimates()
	smooth, err := counter.SmoothedEstimates()
	if err != nil {
		panic(err)
	}
	var rawErr, smoothErr float64
	for t := range truth {
		rawErr += math.Abs(raw[t] - truth[t])
		smoothErr += math.Abs(smooth[t] - truth[t])
	}
	fmt.Printf("standalone counter over %d arrivals: mean |error| released %.2f, smoothed %.2f\n",
		horizon, rawErr/horizon, smoothErr/horizon)
	fmt.Printf("(a naive per-step noisy sum would drift to ~sqrt(t)/eps ~ %.0f)\n", math.Sqrt(horizon))
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
		_ = json.NewDecoder(resp.Body).Decode(&e)
		panic(fmt.Sprintf("POST %s: status %d: %s", url, resp.StatusCode, e.Error))
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
