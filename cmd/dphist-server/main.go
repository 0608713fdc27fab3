// Command dphist-server runs the private histogram interface of Appendix
// B: it loads a sensitive dataset once, holds a fixed epsilon budget, and
// answers HTTP release requests until the budget is exhausted.
//
// Usage:
//
//	dphist-server -domain 1024 -budget 2.0 [flags] < records.csv
//
// Flags:
//
//	-addr A           listen address (default :8080)
//	-domain N         domain size (required)
//	-col N            0-based CSV column holding the position (default 0)
//	-grid W           also serve the dataset as a 2-D grid of width W:
//	                  position p maps to cell (p mod W, p div W), enabling
//	                  the universal2d strategy and POST /v1/query2d
//	                  rectangle batches (0 = 1-D only)
//	-budget F         total epsilon budget per namespace (default 1.0)
//	-cap F            per-request epsilon cap (0 = none)
//	-k N              universal tree branching factor (default 2)
//	-seed N           noise seed (0 = derive from current time)
//	-data-dir D       persist releases and budget ledgers under D; on boot
//	                  the store recovers from its snapshot + write-ahead
//	                  log, so restarts neither lose releases nor forget
//	                  spent budget (empty = in-memory, state dies with
//	                  the process)
//	-shards N         store shard count, at most 4096 (0 = default 8)
//	-snapshot-every N journal records between snapshots (default 1024)
//	-epoch D          enable streaming ingest: POST /v1/ingest absorbs
//	                  event batches and every D (e.g. 10s, 5m) each
//	                  stream's accumulated histogram is minted as a
//	                  "<stream>@epoch-<n>" release, charged -ingest-eps
//	                  from the namespace budget (0 = ingest off)
//	-window W         also maintain "<stream>@window", the budget-free
//	                  sum of the last W epochs (0 = off)
//	-ingest-shards N  ingest worker shards (default 4)
//	-ingest-domain N  buckets per ingested stream (default -domain)
//	-ingest-eps F     epsilon charged per epoch mint (default 0.1)
//	-ingest-strategy S pipeline for epoch releases (default universal)
//	-live-eps F       enable the continual-count surface at this
//	                  per-stream epsilon: POST /v1/ingest/live answers
//	                  private running totals between mints (0 = off)
//	-follow URL       run as a read replica of the primary at URL: no
//	                  dataset is loaded, minting and ingest are refused
//	                  (403), and the store is fed by tailing the
//	                  primary's replication log (GET /v1/repl/stream).
//	                  With -data-dir the replica persists shipped state
//	                  and resumes the stream where it stopped; replicas
//	                  serve every read route bit-identically to the
//	                  primary. See also cmd/dphist-router
//	-pprof A          serve net/http/pprof on a separate listener at A
//	                  (e.g. 127.0.0.1:6060), kept off the serving mux so
//	                  profiling never rides the public address; works in
//	                  both primary and -follow modes (empty = off)
//
// API:
//
//	GET  /healthz        -> {"status":"ok"} (load-balancer probe)
//	GET  /v1/stats       -> uptime, request counters, ingest and
//	                        replication state, and per-namespace store
//	                        sizes and budgets
//	GET  /v1/budget      -> {"namespace":..,"total":..,"spent":..,"remaining":..}
//	GET  /v1/strategies  -> {"strategies":["laplace","universal",..]}
//	POST /v1/release     {"strategy":"universal|laplace|unattributed|
//	                       wavelet|degree_sequence","epsilon":0.1}
//	                     -> {"version":2,"strategy":..,"release":{..},
//	                         "budget_remaining":..}
//	POST /v1/releases    {"name":"traffic","strategy":"universal",
//	                      "epsilon":0.1}
//	                     -> mints AND retains the release under the name
//	                        (re-posting a name bumps its version), reply
//	                        as /v1/release plus {"namespace","name",..}
//	GET  /v1/releases    -> {"releases":[{"namespace","name","version",
//	                         "strategy","epsilon","domain","stored_at"},..]}
//	POST /v1/query       {"name":"traffic","ranges":[{"lo":0,"hi":64},..]}
//	                     -> {"namespace","name","version","strategy",
//	                         "answers":[..]} answering the whole batch in
//	                        one round trip; querying spends no budget
//	POST /v1/query2d     {"name":"grid","rects":[{"x0":0,"y0":0,"x1":8,
//	                      "y1":8},..]} -> rectangle answers against a
//	                     stored universal2d release (requires -grid)
//	POST /v1/ingest      {"events":[{"stream":"clicks","bucket":3,
//	                      "weight":2},..]} -> {"accepted","dropped"};
//	                     absorbed into the posting namespace's streams
//	                     and minted on the next epoch tick (requires
//	                     -epoch)
//	POST /v1/ingest/live {"stream":"clicks","buckets":[3,7]} ->
//	                     {"counts":[..]} private running totals between
//	                     mints (requires -epoch and -live-eps)
//
// Every route above also exists namespace-scoped under /v1/ns/{ns}/...,
// giving each tenant its own release keyspace and epsilon budget; the
// unscoped routes are the "default" namespace.
//
// On SIGINT/SIGTERM the server drains in-flight requests, flushes a
// final store snapshot, and exits — with -data-dir, the next boot
// recovers exactly the state acknowledged before shutdown.
//
// The embedded release payload is self-describing and decodes with
// dphist.DecodeRelease. The hierarchy strategy needs a constraint
// forest and is only servable by embedding the server package directly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/ingest"
	"github.com/dphist/dphist/internal/replica"
	"github.com/dphist/dphist/internal/server"
	"github.com/dphist/dphist/internal/table"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		domainSize = flag.Int("domain", 0, "domain size (required)")
		col        = flag.Int("col", 0, "0-based CSV column holding the position")
		gridWidth  = flag.Int("grid", 0, "serve the dataset as a 2-D grid of this width (0 = 1-D only)")
		budget     = flag.Float64("budget", 1.0, "total epsilon budget per namespace")
		epsCap     = flag.Float64("cap", 0, "per-request epsilon cap (0 = none)")
		branching  = flag.Int("k", 2, "universal tree branching factor")
		seed       = flag.Uint64("seed", 0, "noise seed (0 = derive from current time)")
		dataDir    = flag.String("data-dir", "", "persist releases and budget ledgers here (empty = in-memory)")
		shards     = flag.Int("shards", 0, "store shard count, at most 4096 (0 = default 8)")
		snapEvery  = flag.Int("snapshot-every", 0, "journal records between snapshots (0 = default 1024)")
		epoch      = flag.Duration("epoch", 0, "streaming ingest epoch interval (0 = ingest off)")
		window     = flag.Int("window", 0, "sliding-window width in epochs (0 = off)")
		ingShards  = flag.Int("ingest-shards", 4, "ingest worker shards")
		ingDomain  = flag.Int("ingest-domain", 0, "buckets per ingested stream (0 = -domain)")
		ingEps     = flag.Float64("ingest-eps", 0.1, "epsilon charged per epoch mint")
		ingStrat   = flag.String("ingest-strategy", "universal", "pipeline for epoch releases")
		liveEps    = flag.Float64("live-eps", 0, "per-stream epsilon for the live continual-count surface (0 = off)")
		follow     = flag.String("follow", "", "run as a read replica of this primary's base URL (no dataset, no minting)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate loopback address, e.g. 127.0.0.1:6060 (empty = off)")
	)
	flag.Parse()
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	storeOpts, err := storeOptions(*budget, *shards, *snapEvery)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dphist-server: %v\n", err)
		os.Exit(2)
	}
	if *follow != "" {
		// A follower loads no dataset and mints nothing: every flag that
		// shapes the protected counts or the write path is meaningless,
		// and silently accepting them would hide a misconfiguration.
		if *epoch > 0 {
			fmt.Fprintln(os.Stderr, "dphist-server: -epoch cannot be combined with -follow (ingest belongs on the primary)")
			os.Exit(2)
		}
		runFollower(*follow, *addr, *seed, *branching, *dataDir, storeOpts)
		return
	}
	if *domainSize < 1 {
		fmt.Fprintln(os.Stderr, "dphist-server: -domain is required and must be positive")
		os.Exit(2)
	}
	tab, err := table.New(*domainSize)
	if err != nil {
		fatal(err)
	}
	index := func(s string) (int, error) { return strconv.Atoi(s) }
	loaded, skipped, err := table.ReadCSV(os.Stdin, *col, index, tab)
	if err != nil {
		fatal(err)
	}
	s := *seed
	if s == 0 {
		s = uint64(time.Now().UnixNano())
	}
	if *gridWidth < 0 || *gridWidth > *domainSize {
		fmt.Fprintf(os.Stderr, "dphist-server: -grid %d outside [0, domain %d]\n", *gridWidth, *domainSize)
		os.Exit(2)
	}
	cfg := server.Config{
		Counts:               tab.Histogram(),
		Cells:                reshape(tab.Histogram(), *gridWidth),
		Seed:                 s,
		Branching:            *branching,
		MaxEpsilonPerRequest: *epsCap,
	}
	// The store is built here (not inside server.New) so that the flags
	// shape it and an ingest pipeline can mint into the same keyspace.
	var store *dphist.Store
	if *dataDir != "" {
		store, err = dphist.OpenStore(*dataDir, storeOpts...)
		if err != nil {
			fatal(err)
		}
		// Recovery summary: what the ledger remembers from before.
		recovered := 0
		for _, ns := range store.Namespaces() {
			n := store.Namespace(ns).Len()
			recovered += n
			acct := store.Namespace(ns).Accountant()
			fmt.Fprintf(os.Stderr, "dphist-server: recovered namespace %q: %d releases, eps spent %g of %g\n",
				ns, n, acct.Spent(), acct.Total())
		}
		fmt.Fprintf(os.Stderr, "dphist-server: data dir %s: %d releases recovered\n", *dataDir, recovered)
	} else {
		store = dphist.NewStore(storeOpts...)
	}
	cfg.Store = store
	var ingester *ingest.Ingester
	if *epoch > 0 {
		strategy, err := dphist.ParseStrategy(*ingStrat)
		if err != nil {
			fatal(fmt.Errorf("-ingest-strategy: %w", err))
		}
		// The ingest pipeline has no workload sketch to resolve against;
		// "auto" only makes sense on the request path.
		if strategy == dphist.StrategyAuto {
			fatal(errors.New("-ingest-strategy: auto is not a pipeline; pick a concrete strategy"))
		}
		domain := *ingDomain
		if domain == 0 {
			domain = *domainSize
		}
		// A separate mechanism (offset seed) keeps the ingest noise
		// streams disjoint from the request-serving ones.
		mech, err := dphist.New(dphist.WithSeed(s+1), dphist.WithBranching(*branching))
		if err != nil {
			fatal(err)
		}
		ingester, err = ingest.New(ingest.Config{
			Store:       store,
			Mechanism:   mech,
			Domain:      domain,
			Epoch:       *epoch,
			Strategy:    strategy,
			Epsilon:     *ingEps,
			Window:      *window,
			Shards:      *ingShards,
			LiveEpsilon: *liveEps,
			Seed:        s + 2,
		})
		if err != nil {
			fatal(err)
		}
		ingester.Start()
		cfg.Ingester = ingester
		fmt.Fprintf(os.Stderr, "dphist-server: streaming ingest on: epoch %v, window %d, %d shards, eps %g/epoch\n",
			*epoch, *window, *ingShards, *ingEps)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dphist-server: protecting %d records over domain %d (skipped %d rows), budget eps=%g/namespace, listening on %s\n",
		loaded, *domainSize, skipped, *budget, *addr)
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
	// requests, then flushes a final snapshot so no acknowledged release
	// or budget charge is left only in the WAL.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	select {
	case err := <-serveErr:
		if ingester != nil {
			_ = ingester.Close()
		}
		_ = store.Close()
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "dphist-server: shutting down, draining requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dphist-server: drain: %v\n", err)
	}
	// The ingester closes before the store: its final partial-epoch mint
	// must land while the journal still accepts writes.
	if ingester != nil {
		if err := ingester.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "dphist-server: final epoch flush: %v\n", err)
		}
	}
	if err := store.Close(); err != nil {
		fatal(fmt.Errorf("final snapshot: %w", err))
	}
	if store.Dir() != "" {
		fmt.Fprintln(os.Stderr, "dphist-server: final snapshot flushed")
	}
}

// runFollower runs the process as a read replica: an (optionally
// durable) replica store fed by a replication tailer, served through a
// follower-mode server that refuses writes with 403. Blocks until
// SIGINT/SIGTERM, then stops the tailer BEFORE closing the store.
func runFollower(primary, addr string, seed uint64, branching int, dataDir string, opts []dphist.StoreOption) {
	var store *dphist.Store
	var err error
	if dataDir != "" {
		store, err = dphist.OpenReplica(dataDir, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dphist-server: follower data dir %s: resuming at primary seq %d\n",
			dataDir, store.AppliedSeq())
	} else {
		store = dphist.NewReplica(opts...)
	}
	tailer, err := replica.New(replica.Config{
		Primary: primary,
		Store:   store,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dphist-server: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	s := seed
	if s == 0 {
		s = uint64(time.Now().UnixNano())
	}
	srv, err := server.New(server.Config{
		Store:     store,
		Follower:  true,
		Seed:      s,
		Branching: branching,
		ReplStats: func() server.ReplicationStatus {
			st := tailer.Stats()
			return server.ReplicationStatus{
				State:          st.State,
				PrimarySeq:     st.PrimarySeq,
				RecordsApplied: st.RecordsApplied,
				Snapshots:      st.Snapshots,
				Errors:         st.Errors,
				LastError:      st.LastError,
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	tailer.Start()
	fmt.Fprintf(os.Stderr, "dphist-server: following %s, read-only API on %s\n", primary, addr)
	httpServer := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.ListenAndServe() }()
	select {
	case err := <-serveErr:
		tailer.Close()
		_ = store.Close()
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "dphist-server: shutting down, draining requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dphist-server: drain: %v\n", err)
	}
	// The tailer closes before the store — the read-side mirror of the
	// ingester-before-store rule above: Close joins the streaming
	// goroutine, so no half-applied record can race the final snapshot.
	tailer.Close()
	if err := store.Close(); err != nil {
		fatal(fmt.Errorf("final snapshot: %w", err))
	}
	if store.Dir() != "" {
		fmt.Fprintln(os.Stderr, "dphist-server: final snapshot flushed")
	}
}

// storeOptions builds the store options that the primary and the
// follower share from their flags, refusing values the store cannot
// take.
func storeOptions(budget float64, shards, snapEvery int) ([]dphist.StoreOption, error) {
	if !(budget > 0) || math.IsInf(budget, 0) {
		return nil, fmt.Errorf("-budget %v must be positive and finite", budget)
	}
	if shards < 0 || shards > 4096 {
		return nil, fmt.Errorf("-shards %d outside [0, 4096]", shards)
	}
	if snapEvery < 0 {
		return nil, fmt.Errorf("-snapshot-every %d must not be negative", snapEvery)
	}
	opts := []dphist.StoreOption{dphist.WithBudget(budget)}
	if shards > 0 {
		opts = append(opts, dphist.WithShards(shards))
	}
	if snapEvery > 0 {
		opts = append(opts, dphist.WithSnapshotEvery(snapEvery))
	}
	return opts, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dphist-server: %v\n", err)
	os.Exit(1)
}

// startPprof serves net/http/pprof on its own listener, kept off the
// serving mux so profiling stays on a loopback address operators never
// expose. It runs for both primary and follower modes; a dead listener
// is fatal up front rather than silently unprofileable.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fatal(fmt.Errorf("pprof listener %s: %w", addr, err))
		}
	}()
	fmt.Fprintf(os.Stderr, "dphist-server: pprof on http://%s/debug/pprof/\n", addr)
}

// reshape folds a 1-D histogram row-major into rows of the given width,
// zero-padding the final row; width 0 disables the 2-D surface.
func reshape(counts []float64, width int) [][]float64 {
	if width <= 0 {
		return nil
	}
	rows := (len(counts) + width - 1) / width
	cells := make([][]float64, rows)
	for y := range cells {
		lo := y * width
		hi := min(lo+width, len(counts))
		cells[y] = counts[lo:hi]
	}
	return cells
}
