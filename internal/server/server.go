// Package server exposes a private histogram interface over HTTP — the
// deployment the paper sketches in Appendix B ("the server can implement
// the post-processing step. In that case it would appear to the analyst
// as if the server was sampling from the improved distribution"), in the
// spirit of the emerging private query interfaces it cites (PINQ).
//
// The data owner holds one sensitive count vector and a total epsilon
// budget. Analysts POST release requests; the server runs the mechanism
// plus constrained inference, charges the budget under sequential
// composition, and returns the serialized release. Once the budget is
// exhausted every further request is refused — permanently.
//
// Every strategy the library implements is served through one generic
// handler: a registry maps each dphist.Strategy to the function that
// assembles its dphist.Request from server state, and the uniform
// dphist.Release interface carries the result back to the wire. Adding a
// strategy to the library means adding one registry entry here.
//
// Beyond one-shot minting, the server retains releases in a
// dphist.Store and answers batched range queries against them, so the
// budget-free read side scales with query traffic instead of privacy
// spend: POST /v1/releases mints-and-stores under a name, GET
// /v1/releases lists what is retained, and POST /v1/query answers many
// [lo, hi) ranges against one stored release in a single round trip.
//
// The server is multi-tenant: every route has a namespace-scoped twin
// under /v1/ns/{ns}/... operating on that namespace's release keyspace
// and its own epsilon budget (dphist.Store.Namespace). The unscoped
// routes are the "default" namespace. Namespaces spring into being on
// first write, each with a fresh budget over the same protected counts,
// so the deployment-wide privacy loss is the sum across namespaces —
// run the server behind an authenticating front that controls who may
// allocate tenants. Reads never create namespace state. Handing New a store opened with
// dphist.OpenStore makes the whole thing durable — releases and budget
// ledgers survive restarts. /healthz answers load-balancer probes and
// /v1/stats reports per-namespace store sizes, budgets, and request
// counters for ops dashboards.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/ingest"
)

// Config describes the protected dataset and policy.
type Config struct {
	// Counts is the sensitive unit-count histogram being protected. The
	// degree-sequence strategy reads it as a degree vector; the hierarchy
	// strategy reads it as leaf-query counts.
	Counts []float64
	// Cells is the sensitive 2-D grid being protected, Cells[y][x]
	// (short rows are zero-padded). When set, the universal2d strategy
	// becomes servable: POST /v1/releases can mint 2-D releases and
	// POST /v1/query2d answers rectangle batches against them. When
	// nil, universal2d requests are refused.
	Cells [][]float64
	// Budget is the total epsilon available to each namespace. When
	// Store is set the store's own WithBudget total governs instead;
	// when Accountant is set it governs the default namespace.
	Budget float64
	// Accountant, when non-nil, charges default-namespace releases
	// against an externally owned budget — embed the server in a wider
	// deployment whose other components share the same composition
	// bound, or inspect charges in tests. Namespaced routes always use
	// the store's per-namespace accountants.
	Accountant *dphist.Accountant
	// Seed drives the noise streams.
	Seed uint64
	// Branching is the universal-histogram tree fan-out; 0 means 2.
	Branching int
	// MaxEpsilonPerRequest caps single requests; 0 means no cap beyond
	// the remaining budget.
	MaxEpsilonPerRequest float64
	// Hierarchy enables the hierarchy strategy: the constraint forest
	// whose leaf counts are Counts (so it must have exactly len(Counts)
	// leaves). When nil, hierarchy requests are refused.
	Hierarchy *dphist.Hierarchy
	// Store, when non-nil, is the externally owned release store the
	// server serves from — open one with dphist.OpenStore for
	// durability. The caller keeps ownership and closes it after
	// shutdown. When nil the server builds an in-memory store with
	// Budget.
	Store *dphist.Store
	// Ingester, when non-nil, enables the streaming write path: POST
	// /v1/ingest absorbs event batches, POST /v1/ingest/live answers the
	// continual-count surface, and /v1/stats grows an ingest block. It
	// must be built over the same Store the server serves from (epoch
	// releases mint straight into /v1/query's keyspace) and the caller
	// keeps ownership: Start it before serving, Close it before closing
	// the store.
	Ingester *ingest.Ingester
	// Follower marks this server a read replica: minting routes are
	// refused with 403 and /v1/stats reports the follower role plus
	// replication lag. Store must be set (a replica store from
	// dphist.NewReplica or dphist.OpenReplica, fed by a tailer the
	// caller owns) and Counts may be empty — a follower serves only what
	// replication ships.
	Follower bool
	// ReplStats, when non-nil, injects the replication tailer's counters
	// into /v1/stats. Set by dphist-server -follow; nil on primaries.
	ReplStats func() ReplicationStatus
	// ReplPollWindow bounds how long GET /v1/repl/stream parks a
	// caught-up long-poll before returning an empty chunk so the
	// follower re-polls; 0 means 20s. Keep it under any front-end write
	// timeout or the poll is killed mid-park.
	ReplPollWindow time.Duration
}

// ReplicationStatus is a follower's view of its replication tailer,
// injected through Config.ReplStats by the process that owns the tailer
// so /v1/stats can report lag without this package importing it.
type ReplicationStatus struct {
	State          string
	PrimarySeq     uint64
	RecordsApplied int64
	Snapshots      int64
	Errors         int64
	LastError      string
}

// Server is the HTTP-facing privacy mechanism. Safe for concurrent use.
type Server struct {
	cfg   Config
	mech  *dphist.Mechanism
	store *dphist.Store
	start time.Time

	sessMu   sync.Mutex
	sessions map[string]*dphist.Session // one budgeted session per namespace

	// Ops counters served by /v1/stats.
	reqTotal   atomic.Int64
	reqErrors  atomic.Int64
	mintCount  atomic.Int64
	queryCount atomic.Int64
	// encodeErrors counts response bodies that failed to encode — every
	// one was a silent half-success before writeJSON buffered its output.
	encodeErrors atomic.Int64
	// autoResolved counts successful "strategy": "auto" mints by the
	// concrete strategy the advisor chose, indexed by dphist.Strategy.
	autoResolved []atomic.Int64

	// nsViews caches namespace handles for the query hot path; see
	// nsView in wire.go. Only namespaces that served a query are cached.
	nsViews sync.Map
}

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if len(cfg.Counts) == 0 && !cfg.Follower {
		return nil, errors.New("server: empty count vector")
	}
	if cfg.Follower && cfg.Store == nil {
		return nil, errors.New("server: follower requires a replica Store")
	}
	if cfg.Accountant == nil && cfg.Store == nil && !(cfg.Budget > 0) {
		return nil, fmt.Errorf("server: budget %v must be positive", cfg.Budget)
	}
	if cfg.Hierarchy != nil && len(cfg.Hierarchy.Leaves()) != len(cfg.Counts) {
		return nil, fmt.Errorf("server: hierarchy has %d leaves for %d counts",
			len(cfg.Hierarchy.Leaves()), len(cfg.Counts))
	}
	k := cfg.Branching
	if k == 0 {
		k = 2
	}
	m, err := dphist.New(dphist.WithSeed(cfg.Seed), dphist.WithBranching(k))
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		var opts []dphist.StoreOption
		if cfg.Budget > 0 {
			opts = append(opts, dphist.WithBudget(cfg.Budget))
		}
		store = dphist.NewStore(opts...)
	}
	return &Server{
		cfg:          cfg,
		mech:         m,
		store:        store,
		start:        time.Now(),
		sessions:     make(map[string]*dphist.Session),
		autoResolved: make([]atomic.Int64, len(dphist.Strategies())),
	}, nil
}

// noteAutoDecision records an auto-resolution against the concrete
// strategy the advisor chose and returns the decision for the response
// payload; direct (non-auto) mints return nil and count nothing.
func (s *Server) noteAutoDecision(release dphist.Release) *dphist.AutoDecision {
	dec, ok := dphist.ReleaseDecision(release)
	if !ok {
		return nil
	}
	if st, err := dphist.ParseStrategy(dec.Strategy); err == nil && st.Valid() {
		if i := int(st); i >= 0 && i < len(s.autoResolved) {
			s.autoResolved[i].Add(1)
		}
	}
	return &dec
}

// session returns (creating on first use) the namespace's budgeted
// session. Every namespace charges its own store accountant — durable
// when the store is — except the default namespace under a legacy
// Config.Accountant override.
func (s *Server) session(ns string) (*dphist.Session, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[ns]; ok {
		return sess, nil
	}
	acct := s.cfg.Accountant
	if acct == nil || ns != dphist.DefaultNamespace {
		acct = s.store.Namespace(ns).Accountant()
	}
	sess, err := dphist.NewSessionWithAccountant(s.mech, acct)
	if err != nil {
		return nil, err
	}
	s.sessions[ns] = sess
	return sess, nil
}

// Session returns the default namespace's budgeted session, for
// embedding callers that also issue releases directly.
func (s *Server) Session() *dphist.Session {
	sess, _ := s.session(dphist.DefaultNamespace)
	return sess
}

// Store returns the release store behind /v1/query, for embedding
// callers that mint or query releases directly.
func (s *Server) Store() *dphist.Store { return s.store }

// requestBuilder assembles the dphist.Request that serves one strategy
// from the server's protected state, or reports why the strategy is not
// servable under the current configuration.
type requestBuilder func(s *Server, eps float64) (dphist.Request, error)

// countsBuilder serves a strategy that consumes the protected count
// vector directly.
func countsBuilder(strategy dphist.Strategy) requestBuilder {
	return func(s *Server, eps float64) (dphist.Request, error) {
		return dphist.Request{Strategy: strategy, Counts: s.cfg.Counts, Epsilon: eps}, nil
	}
}

// registry maps every servable strategy to its request builder. All six
// library strategies are present; future strategies plug in here.
var registry = map[dphist.Strategy]requestBuilder{
	dphist.StrategyUniversal:      countsBuilder(dphist.StrategyUniversal),
	dphist.StrategyLaplace:        countsBuilder(dphist.StrategyLaplace),
	dphist.StrategyUnattributed:   countsBuilder(dphist.StrategyUnattributed),
	dphist.StrategyWavelet:        countsBuilder(dphist.StrategyWavelet),
	dphist.StrategyDegreeSequence: countsBuilder(dphist.StrategyDegreeSequence),
	dphist.StrategyHierarchy: func(s *Server, eps float64) (dphist.Request, error) {
		if s.cfg.Hierarchy == nil {
			return dphist.Request{}, errors.New("hierarchy strategy not configured on this server")
		}
		return dphist.Request{
			Strategy:  dphist.StrategyHierarchy,
			Counts:    s.cfg.Counts,
			Epsilon:   eps,
			Hierarchy: s.cfg.Hierarchy,
		}, nil
	},
	dphist.StrategyUniversal2D: func(s *Server, eps float64) (dphist.Request, error) {
		if s.cfg.Cells == nil {
			return dphist.Request{}, errors.New("universal2d strategy not configured on this server (no 2-D dataset)")
		}
		return dphist.Request{
			Strategy: dphist.StrategyUniversal2D,
			Cells:    s.cfg.Cells,
			Epsilon:  eps,
		}, nil
	},
}

// namespacePattern bounds what a URL path segment may name: tenant
// names stay journal-, log-, and URL-safe. The pattern alone still
// admits the dot segments "." and "..", which proxies and clients
// normalize away before the request ever routes here — nsHandler
// rejects them explicitly, and dphist.ValidateName refuses them at the
// store boundary as a second line of defense.
var namespacePattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// NamespacePath returns the route prefix for a namespace's scoped
// routes, percent-escaping the name so it survives as a single URL path
// segment: NamespacePath("geo.analytics") == "/v1/ns/geo.analytics".
// Clients composing URLs by string concatenation should use this (or
// url.PathEscape) rather than splicing raw names into paths.
func NamespacePath(ns string) string {
	return "/v1/ns/" + url.PathEscape(ns)
}

// nsHandler adapts a namespace-scoped handler to both its unscoped
// route (default namespace) and its /v1/ns/{ns}/ twin.
func (s *Server) nsHandler(fn func(http.ResponseWriter, *http.Request, string)) (plain, scoped http.HandlerFunc) {
	plain = func(w http.ResponseWriter, r *http.Request) {
		fn(w, r, dphist.DefaultNamespace)
	}
	scoped = func(w http.ResponseWriter, r *http.Request) {
		ns := r.PathValue("ns")
		if ns == "." || ns == ".." || !namespacePattern.MatchString(ns) {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid namespace: must match " + namespacePattern.String() + " and not be a dot segment"})
			return
		}
		fn(w, r, ns)
	}
	return plain, scoped
}

// Handler returns the HTTP routes, wrapped in the stats-counting
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	mux.HandleFunc("GET /v1/repl/stream", s.handleReplStream)
	for _, route := range []struct {
		plain, scoped string
		fn            func(http.ResponseWriter, *http.Request, string)
	}{
		{"GET /v1/budget", "GET /v1/ns/{ns}/budget", s.handleBudget},
		{"GET /v1/strategies", "GET /v1/ns/{ns}/strategies", s.handleStrategies},
		{"POST /v1/release", "POST /v1/ns/{ns}/release", s.handleRelease},
		{"POST /v1/releases", "POST /v1/ns/{ns}/releases", s.handleStoreRelease},
		{"GET /v1/releases", "GET /v1/ns/{ns}/releases", s.handleListReleases},
		{"POST /v1/query", "POST /v1/ns/{ns}/query", s.handleQuery},
		{"POST /v1/query2d", "POST /v1/ns/{ns}/query2d", s.handleQuery2D},
		{"POST /v1/ingest", "POST /v1/ns/{ns}/ingest", s.handleIngest},
		{"POST /v1/ingest/live", "POST /v1/ns/{ns}/ingest/live", s.handleIngestLive},
	} {
		plain, scoped := s.nsHandler(route.fn)
		mux.HandleFunc(route.plain, plain)
		mux.HandleFunc(route.scoped, scoped)
	}
	return s.countRequests(mux)
}

// statusRecorder captures the response status for the error counter.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush keeps the wrapped writer a streaming one: without it the
// replication stream's per-record flushes would silently buffer until
// the handler returned, turning wake-on-append into wake-on-deadline.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recorderPool recycles statusRecorders: the middleware wraps every
// request, so a per-request allocation here would put a floor under the
// whole hot path.
var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// countRequests is the ops middleware: total and error counts for
// /v1/stats.
func (s *Server) countRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Add(1)
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		next.ServeHTTP(rec, r)
		if rec.status >= 400 {
			s.reqErrors.Add(1)
		}
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// namespaceStats is one namespace's slice of the /v1/stats payload.
type namespaceStats struct {
	Name            string  `json:"name"`
	Releases        int     `json:"releases"`
	BudgetTotal     float64 `json:"budget_total"`
	BudgetSpent     float64 `json:"budget_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// statsResponse is the GET /v1/stats payload.
type statsResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Durable       bool             `json:"durable"`
	JournalSeq    uint64           `json:"journal_seq"`
	SnapshotSeq   uint64           `json:"snapshot_seq"`
	Requests      requestStats     `json:"requests"`
	Ingest        ingestStats      `json:"ingest"`
	Replication   replicationStats `json:"replication"`
	Namespaces    []namespaceStats `json:"namespaces"`
}

// replicationStats is the cluster-role slice of /v1/stats: enough to
// see lag, stream health, and the last failure without log-diving.
// Role is "primary" (durable, shippable log), "follower", or "none"
// (in-memory, nothing to replicate).
type replicationStats struct {
	Role           string `json:"role"`
	AppliedSeq     uint64 `json:"applied_seq"`
	PrimarySeq     uint64 `json:"primary_seq,omitempty"`
	LagRecords     uint64 `json:"replication_lag_records"`
	State          string `json:"state,omitempty"`
	RecordsApplied int64  `json:"records_applied,omitempty"`
	Snapshots      int64  `json:"snapshots,omitempty"`
	Errors         int64  `json:"errors,omitempty"`
	LastError      string `json:"last_error,omitempty"`
}

// ingestStats is the streaming write path's slice of /v1/stats: the
// pipeline's cumulative counters, inlined, plus whether it exists at
// all (every counter is zero on a query-only server).
type ingestStats struct {
	Enabled bool `json:"enabled"`
	ingest.Stats
}

type requestStats struct {
	Total          int64 `json:"total"`
	Errors         int64 `json:"errors"`
	ReleasesMinted int64 `json:"releases_minted"`
	RangeQueries   int64 `json:"range_queries"`
	// EncodeErrors counts responses whose JSON encoding failed (the
	// request was otherwise served); nonzero means a handler produced an
	// unencodable value — a server bug worth an alert.
	EncodeErrors int64 `json:"encode_errors,omitempty"`
	// AutoResolved counts "strategy": "auto" mints by the concrete
	// strategy the advisor picked; absent until the first resolution.
	AutoResolved map[string]int64 `json:"auto_resolved,omitempty"`
}

// handleStats serves GET /v1/stats. It is an unauthenticated read, so
// it creates nothing: one read-locked pass over the store counts every
// namespace's releases, and budgets come from existing accountants only.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	counts := s.store.NamespaceCounts()
	// The default namespace is always reported, even before first use.
	if !slices.ContainsFunc(counts, func(c dphist.NamespaceCount) bool { return c.Name == dphist.DefaultNamespace }) {
		counts = append(counts, dphist.NamespaceCount{Name: dphist.DefaultNamespace})
		sort.Slice(counts, func(i, j int) bool { return counts[i].Name < counts[j].Name })
	}
	stats := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Durable:       s.store.Dir() != "",
		JournalSeq:    s.store.JournalSeq(),
		SnapshotSeq:   s.store.SnapshotSeq(),
		Replication:   s.replicationStats(),
		Requests: requestStats{
			Total:          s.reqTotal.Load(),
			Errors:         s.reqErrors.Load(),
			ReleasesMinted: s.mintCount.Load(),
			RangeQueries:   s.queryCount.Load(),
			EncodeErrors:   s.encodeErrors.Load(),
		},
	}
	for _, st := range dphist.Strategies() {
		if n := s.autoResolved[int(st)].Load(); n > 0 {
			if stats.Requests.AutoResolved == nil {
				stats.Requests.AutoResolved = make(map[string]int64)
			}
			stats.Requests.AutoResolved[st.String()] = n
		}
	}
	if s.cfg.Ingester != nil {
		stats.Ingest = ingestStats{Enabled: true, Stats: s.cfg.Ingester.Stats()}
	}
	for _, c := range counts {
		ns := namespaceStats{Name: c.Name, Releases: c.Releases}
		if acct := s.lookupAccountant(c.Name); acct != nil {
			ns.BudgetTotal, ns.BudgetSpent, ns.BudgetRemaining = acct.Total(), acct.Spent(), acct.Remaining()
		} else {
			// Nothing has been charged here; report the untouched budget,
			// as handleBudget does.
			ns.BudgetTotal, ns.BudgetRemaining = s.store.Budget(), s.store.Budget()
		}
		stats.Namespaces = append(stats.Namespaces, ns)
	}
	s.writeJSON(w, http.StatusOK, stats)
}

// lookupAccountant returns the accountant the namespace's session
// charges, or nil when none exists yet, creating nothing: the default
// namespace's Config.Accountant override when set, else the store's.
func (s *Server) lookupAccountant(ns string) *dphist.Accountant {
	if ns == dphist.DefaultNamespace && s.cfg.Accountant != nil {
		return s.cfg.Accountant
	}
	if a, ok := s.store.LookupAccountant(ns); ok {
		return a
	}
	return nil
}

// budgetResponse is the GET /v1/budget payload.
type budgetResponse struct {
	Namespace string  `json:"namespace"`
	Total     float64 `json:"total"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request, ns string) {
	acct := s.lookupAccountant(ns)
	if acct == nil {
		// A read must not bring a namespace into being: probing arbitrary
		// names would otherwise grow server state without bound. A
		// namespace without an accountant has spent nothing, whether or
		// not it holds releases, so the lookup alone answers it.
		total := s.store.Budget()
		s.writeJSON(w, http.StatusOK, budgetResponse{
			Namespace: ns, Total: total, Spent: 0, Remaining: total,
		})
		return
	}
	s.writeJSON(w, http.StatusOK, budgetResponse{
		Namespace: ns,
		Total:     acct.Total(),
		Spent:     acct.Spent(),
		Remaining: acct.Remaining(),
	})
}

// strategiesResponse is the GET /v1/strategies payload: the wire names
// of every strategy this server can currently serve.
type strategiesResponse struct {
	Strategies []string `json:"strategies"`
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request, ns string) {
	names := make([]string, 0, len(registry))
	for strategy := range registry {
		if strategy == dphist.StrategyHierarchy && s.cfg.Hierarchy == nil {
			continue
		}
		if strategy == dphist.StrategyUniversal2D && s.cfg.Cells == nil {
			continue
		}
		names = append(names, strategy.String())
	}
	// "auto" is not a mintable strategy itself but is accepted by the
	// release endpoints whenever at least one concrete strategy is.
	names = append(names, dphist.StrategyAuto.String())
	sort.Strings(names)
	s.writeJSON(w, http.StatusOK, strategiesResponse{Strategies: names})
}

// releaseRequest is the POST /v1/release payload. "task" is accepted as
// a legacy alias for "strategy". With "strategy": "auto", "workload"
// sketches the queries the analyst plans to ask (weighted ranges/rects
// or a named preset such as "count_of_counts") and the server mints the
// predicted-best strategy; the sketch is ignored for concrete
// strategies.
type releaseRequest struct {
	Strategy string                 `json:"strategy"`
	Task     string                 `json:"task,omitempty"`
	Epsilon  float64                `json:"epsilon"`
	Workload *dphist.WorkloadSketch `json:"workload,omitempty"`
}

// releaseResponse wraps a serialized release with accounting info. The
// embedded release payload is self-describing (dphist wire format
// Version) and decodes client-side via dphist.DecodeRelease. Strategy
// is the strategy actually minted — for an auto request, the resolved
// one, with the full decision in Auto. It documents the reply's shape;
// appendReleaseResponse writes the same bytes without reflection.
type releaseResponse struct {
	Version         int                  `json:"version"`
	Strategy        string               `json:"strategy"`
	Epsilon         float64              `json:"epsilon"`
	Domain          int                  `json:"domain"`
	Release         json.RawMessage      `json:"release"`
	Auto            *dphist.AutoDecision `json:"auto,omitempty"`
	BudgetRemaining float64              `json:"budget_remaining"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// buildRequest validates the wire strategy/epsilon pair and assembles
// the library request that serves it, reporting failures as a ready-to-
// write status and message (status 0 means success). "auto" assembles a
// StrategyAuto request carrying the sketch plus every protected input
// the server is configured with, so resolution can consider all of them
// as candidates.
func (s *Server) buildRequest(strategyName, legacyTask string, eps float64, sketch *dphist.WorkloadSketch) (dphist.Request, dphist.Strategy, int, string) {
	if !(eps > 0) {
		return dphist.Request{}, 0, http.StatusBadRequest, "epsilon must be positive"
	}
	if s.cfg.MaxEpsilonPerRequest > 0 && eps > s.cfg.MaxEpsilonPerRequest {
		return dphist.Request{}, 0, http.StatusBadRequest,
			fmt.Sprintf("epsilon %v exceeds per-request cap %v", eps, s.cfg.MaxEpsilonPerRequest)
	}
	name := strategyName
	if name == "" {
		name = legacyTask
	}
	if name == "" {
		name = dphist.StrategyUniversal.String()
	}
	strategy, err := dphist.ParseStrategy(name)
	if err != nil {
		return dphist.Request{}, 0, http.StatusBadRequest, "unknown strategy " + name
	}
	if strategy == dphist.StrategyAuto {
		request := dphist.Request{
			Strategy:  dphist.StrategyAuto,
			Counts:    s.cfg.Counts,
			Cells:     s.cfg.Cells,
			Epsilon:   eps,
			Hierarchy: s.cfg.Hierarchy,
			Workload:  sketch,
		}
		// Resolution re-runs these checks; validating here turns a bad
		// sketch into a 4xx before a session or budget is touched.
		if err := request.Validate(); err != nil {
			return dphist.Request{}, 0, http.StatusBadRequest, err.Error()
		}
		return request, strategy, 0, ""
	}
	build, ok := registry[strategy]
	if !ok {
		return dphist.Request{}, 0, http.StatusBadRequest, "strategy not served: " + name
	}
	request, err := build(s, eps)
	if err != nil {
		return dphist.Request{}, 0, http.StatusBadRequest, err.Error()
	}
	return request, strategy, 0, ""
}

// writeReleaseError maps a refused or failed mint onto a status code:
// budget exhaustion is the analyst's problem (429), a read-only replica
// is a routing problem (403 — mint on the primary), a bad workload
// sketch (400) the request's, everything else the server's (500).
func (s *Server) writeReleaseError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, dphist.ErrBudgetExceeded):
		status = http.StatusTooManyRequests
	case errors.Is(err, dphist.ErrReadOnly):
		status = http.StatusForbidden
	case errors.Is(err, dphist.ErrBadSketch):
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// refuseOnFollower short-circuits a write route on a follower with 403.
// The store's own ErrReadOnly gate backs this up for embedded callers;
// refusing at the route spares the follower building a doomed request.
func (s *Server) refuseOnFollower(w http.ResponseWriter) bool {
	if !s.cfg.Follower {
		return false
	}
	s.writeJSON(w, http.StatusForbidden, errorResponse{Error: "read-only follower: send writes to the primary"})
	return true
}

// maxRequestBody caps request bodies before JSON decoding: 4 MiB fits a
// maxQueryRanges batch comfortably while keeping one oversized POST
// from materializing gigabytes in the decoder.
const maxRequestBody = 4 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
}

func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request, ns string) {
	if s.refuseOnFollower(w) {
		return
	}
	var req releaseRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	request, _, status, msg := s.buildRequest(req.Strategy, req.Task, req.Epsilon, req.Workload)
	if status != 0 {
		s.writeJSON(w, status, errorResponse{Error: msg})
		return
	}
	sess, err := s.session(ns)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	// The session charges the budget after request validation (and auto
	// resolution) but BEFORE computing: malformed requests cost nothing,
	// and a refused charge leaks nothing beyond the refusal itself.
	release, err := sess.Release(request)
	if err != nil {
		s.writeReleaseError(w, err)
		return
	}
	s.mintCount.Add(1)
	auto := s.noteAutoDecision(release)
	out, err := appendReleaseResponse(nil, req.Epsilon, len(s.cfg.Counts), release, auto, sess.Remaining())
	s.writeAppended(w, out, err)
}

// storeReleaseRequest is the POST /v1/releases payload: mint a release
// and retain it under Name for later /v1/query batches. "strategy":
// "auto" with a workload sketch mints and stores the predicted-best
// strategy; the journal records the resolved strategy, never the
// sentinel.
type storeReleaseRequest struct {
	Name     string                 `json:"name"`
	Strategy string                 `json:"strategy"`
	Epsilon  float64                `json:"epsilon"`
	Workload *dphist.WorkloadSketch `json:"workload,omitempty"`
}

// storedReleaseInfo summarizes one stored release on the wire.
type storedReleaseInfo struct {
	Namespace string    `json:"namespace"`
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	Strategy  string    `json:"strategy"`
	Epsilon   float64   `json:"epsilon"`
	Domain    int       `json:"domain"`
	StoredAt  time.Time `json:"stored_at"`
}

func wireEntry(e dphist.StoreEntry) storedReleaseInfo {
	return storedReleaseInfo{
		Namespace: e.Namespace,
		Name:      e.Name,
		Version:   e.Version,
		Strategy:  e.Strategy.String(),
		Epsilon:   e.Epsilon,
		Domain:    e.Domain,
		StoredAt:  e.StoredAt,
	}
}

// storeReleaseResponse is the POST /v1/releases reply: the stored
// entry's metadata plus the self-describing release payload, so the
// analyst can also query offline via dphist.DecodeRelease. Auto carries
// the resolution decision when the mint used "strategy": "auto". Like
// releaseResponse it documents the shape appendStoreReleaseResponse
// writes.
type storeReleaseResponse struct {
	storedReleaseInfo
	Release         json.RawMessage      `json:"release"`
	Auto            *dphist.AutoDecision `json:"auto,omitempty"`
	BudgetRemaining float64              `json:"budget_remaining"`
}

func (s *Server) handleStoreRelease(w http.ResponseWriter, r *http.Request, ns string) {
	if s.refuseOnFollower(w) {
		return
	}
	var req storeReleaseRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if req.Name == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "name is required"})
		return
	}
	request, _, status, msg := s.buildRequest(req.Strategy, "", req.Epsilon, req.Workload)
	if status != 0 {
		s.writeJSON(w, status, errorResponse{Error: msg})
		return
	}
	sess, err := s.session(ns)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	release, entry, err := s.store.Namespace(ns).Mint(sess, req.Name, request)
	if err != nil {
		s.writeReleaseError(w, err)
		return
	}
	s.mintCount.Add(1)
	auto := s.noteAutoDecision(release)
	out, err := appendStoreReleaseResponse(nil, entry, release, auto, sess.Remaining())
	s.writeAppended(w, out, err)
}

// listReleasesResponse is the GET /v1/releases payload.
type listReleasesResponse struct {
	Releases []storedReleaseInfo `json:"releases"`
}

func (s *Server) handleListReleases(w http.ResponseWriter, r *http.Request, ns string) {
	entries := s.store.Namespace(ns).List()
	out := make([]storedReleaseInfo, len(entries))
	for i, e := range entries {
		out[i] = wireEntry(e)
	}
	s.writeJSON(w, http.StatusOK, listReleasesResponse{Releases: out})
}

// maxQueryRanges bounds one /v1/query batch; query answering is cheap
// (O(log n) per range, no budget) but unbounded batches would let one
// analyst monopolize the connection.
const maxQueryRanges = 100000

// queryRequest is the POST /v1/query payload: a batch of half-open
// ranges to answer against the stored release called Name.
type queryRequest struct {
	Name   string             `json:"name"`
	Ranges []dphist.RangeSpec `json:"ranges"`
}

// queryResponse aligns Answers with the request's Ranges by index.
type queryResponse struct {
	Namespace string    `json:"namespace"`
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	Strategy  string    `json:"strategy"`
	Answers   []float64 `json:"answers"`
}

// handleQuery is the serving hot path: pooled scratch end to end (body,
// specs, answers, response bytes), the wire.go hand-rolled parser
// instead of reflection, and Namespace.QueryInto appending into the
// scratch's answer buffer. Steady state is ~1 amortized allocation per
// request; TestServerQueryAllocs holds the line.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ns string) {
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	name, specs, err := parseQueryRequest(sc, maxQueryRanges)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if name == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "name is required"})
		return
	}
	view, cached := s.nsView(ns)
	answers, entry, err := view.QueryInto(sc.answers[:0], name, specs)
	sc.answers = answers[:0]
	if err != nil {
		s.serveQueryError(w, err)
		return
	}
	if !cached {
		s.nsViews.Store(ns, view)
	}
	s.queryCount.Add(1)
	s.writeQueryResponse(w, sc, entry, answers)
}

// query2DRequest is the POST /v1/query2d payload: a batch of half-open
// rectangles to answer against the stored 2-D release called Name.
type query2DRequest struct {
	Name  string            `json:"name"`
	Rects []dphist.RectSpec `json:"rects"`
}

// query2DResponse aligns Answers with the request's Rects by index.
type query2DResponse struct {
	Namespace string    `json:"namespace"`
	Name      string    `json:"name"`
	Version   int       `json:"version"`
	Strategy  string    `json:"strategy"`
	Answers   []float64 `json:"answers"`
}

// handleQuery2D mirrors handleQuery's pooled path for rectangle
// batches. ErrNotRectangular and malformed specs are both the analyst's
// request to fix, so every non-404 failure maps to 400.
func (s *Server) handleQuery2D(w http.ResponseWriter, r *http.Request, ns string) {
	sc := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(sc)
	if !s.readBody(w, r, sc) {
		return
	}
	name, rects, err := parseQuery2DRequest(sc, maxQueryRanges)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if name == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "name is required"})
		return
	}
	view, cached := s.nsView(ns)
	answers, entry, err := view.QueryRectsInto(sc.answers[:0], name, rects)
	sc.answers = answers[:0]
	if err != nil {
		s.serveQueryError(w, err)
		return
	}
	if !cached {
		s.nsViews.Store(ns, view)
	}
	s.queryCount.Add(1)
	s.writeQueryResponse(w, sc, entry, answers)
}

// maxIngestEvents bounds one POST /v1/ingest batch, mirroring
// maxQueryRanges on the read side: the pipeline absorbs sustained load
// through many batches, not one unbounded body.
const maxIngestEvents = 100000

// ingestRequest is the POST /v1/ingest payload: a batch of events for
// the namespace's streams. Omitted weights count as 1.
type ingestRequest struct {
	Events []ingest.Event `json:"events"`
}

// ingestResponse reports the batch outcome. Dropped events (bucket out
// of range, bad weight or stream name) are skipped, not fatal: the rest
// of the batch is absorbed.
type ingestResponse struct {
	Namespace string `json:"namespace"`
	Accepted  int    `json:"accepted"`
	Dropped   int    `json:"dropped"`
}

// writeIngestError maps pipeline failures: a closed pipeline is the
// server shutting down (503), anything else is the caller's request.
func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ingest.ErrClosed) {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, ns string) {
	if s.refuseOnFollower(w) {
		return
	}
	if s.cfg.Ingester == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "streaming ingest not configured on this server"})
		return
	}
	var req ingestRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if len(req.Events) == 0 {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "events is required"})
		return
	}
	if len(req.Events) > maxIngestEvents {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch of %d events exceeds limit %d", len(req.Events), maxIngestEvents)})
		return
	}
	accepted, err := s.cfg.Ingester.Ingest(ns, req.Events)
	if err != nil {
		s.writeIngestError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Namespace: ns,
		Accepted:  accepted,
		Dropped:   len(req.Events) - accepted,
	})
}

// ingestLiveRequest is the POST /v1/ingest/live payload: which buckets
// of which stream to read from the continual-count surface.
type ingestLiveRequest struct {
	Stream  string `json:"stream"`
	Buckets []int  `json:"buckets"`
}

// ingestLiveResponse aligns Counts with the request's Buckets by index:
// the private running totals since the pipeline started, fresher than
// the last epoch mint.
type ingestLiveResponse struct {
	Namespace string    `json:"namespace"`
	Stream    string    `json:"stream"`
	Counts    []float64 `json:"counts"`
}

func (s *Server) handleIngestLive(w http.ResponseWriter, r *http.Request, ns string) {
	if s.cfg.Ingester == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "streaming ingest not configured on this server"})
		return
	}
	var req ingestLiveRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if req.Stream == "" {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "stream is required"})
		return
	}
	if len(req.Buckets) > maxQueryRanges {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("batch of %d buckets exceeds limit %d", len(req.Buckets), maxQueryRanges)})
		return
	}
	counts, err := s.cfg.Ingester.LiveCounts(ns, req.Stream, req.Buckets)
	if err != nil {
		if errors.Is(err, ingest.ErrLiveDisabled) {
			s.writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		s.writeIngestError(w, err)
		return
	}
	s.queryCount.Add(1)
	if counts == nil {
		counts = []float64{} // empty batch encodes as [], not null
	}
	s.writeJSON(w, http.StatusOK, ingestLiveResponse{
		Namespace: ns,
		Stream:    req.Stream,
		Counts:    counts,
	})
}

// jsonBufPool recycles encode buffers for writeJSON's cold paths.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes v into a pooled buffer before touching the
// response. Encoding first means a failure becomes a clean 500 plus an
// encode_errors tick in /v1/stats — the previous
// json.NewEncoder(w).Encode(v) swallowed the error after the status
// line was already on the wire, leaving the client a truncated 200.
// Cold paths only; the query hot path writes pre-encoded bytes.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer jsonBufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.encodeErrors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, "{\"error\":\"internal: response encoding failed\"}\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
