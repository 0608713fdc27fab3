// Package dphist releases differentially private histograms whose
// accuracy is boosted by constrained inference, implementing
//
//	Michael Hay, Vibhor Rastogi, Gerome Miklau, Dan Suciu.
//	Boosting the Accuracy of Differentially Private Histograms Through
//	Consistency. PVLDB 3(1), 2010.
//
// The core idea: instead of adding Laplace noise to the plain histogram,
// ask a query whose true answer satisfies known constraints — the counts
// in sorted order (constraints: non-decreasing) or a hierarchy of range
// counts (constraints: parent equals sum of children) — and then project
// the noisy answer onto the constraint set. The projection is pure
// post-processing, so the differential privacy guarantee is untouched,
// yet the result is often dramatically more accurate.
//
// # Requests, Releases, Sessions
//
// The public API is organized around three types:
//
//   - Request names a Strategy (one of the seven release pipelines, or
//     StrategyAuto to let the advisor pick one), the
//     sensitive counts, and an epsilon. Mechanism.Release runs any of
//     them through one entry point; Mechanism.ReleaseBatch fans a slice
//     of requests across a worker pool with deterministic per-request
//     noise streams.
//   - Release is the uniform read side every pipeline produces:
//     Strategy, Epsilon, Counts, Total, and Range queries, plus a
//     versioned JSON wire format. DecodeRelease reconstructs the right
//     concrete type from a payload without out-of-band knowledge.
//   - Session couples a Mechanism with an Accountant so every release is
//     charged against one fixed epsilon budget under sequential
//     composition — the paper's Appendix B server shape as a library
//     value.
//
// The seven strategies:
//
//   - StrategyUniversal (Mechanism.UniversalHistogram): a hierarchical
//     release answering arbitrary range-count queries with
//     poly-logarithmic error in the domain size instead of linear.
//   - StrategyUnattributed (Mechanism.UnattributedHistogram): the
//     multiset of counts, e.g. the degree distribution of a graph. Error
//     drops from Theta(n/eps^2) to O(d log^3 n / eps^2) where d is the
//     number of distinct counts.
//   - StrategyLaplace (Mechanism.LaplaceHistogram): the flat noisy
//     histogram L~, the conventional baseline.
//   - StrategyWavelet (Mechanism.WaveletHistogram): the Haar-wavelet
//     mechanism of Xiao et al., the related-work comparator.
//   - StrategyDegreeSequence (Mechanism.DegreeSequence): the
//     unattributed pipeline projected onto graphical degree sequences.
//   - StrategyHierarchy (Mechanism.HierarchyRelease): a custom
//     constraint forest, such as the introduction's student-grades
//     query set.
//   - StrategyUniversal2D (Mechanism.Universal2DHistogram): the
//     two-dimensional universal histogram of Appendix B — a quadtree of
//     noisy region counts over a Request.Cells grid, made consistent by
//     the same Theorem 3 inference (the quadtree over Morton-ordered
//     cells is the H query with branching factor 4), answering arbitrary
//     axis-aligned rectangle queries.
//
// The typed methods remain available and return the concrete release
// types with their strategy-specific extras (noisy baselines, tree
// shape, graphicality checks); Release(Request) is the polymorphic
// equivalent serving layers should build on.
//
// # Choosing a strategy
//
// Which pipeline answers a given query mix most accurately depends on
// the workload, not the data: point lookups favor the flat Laplace
// histogram, broad range scans favor the hierarchical strategies, and
// the crossover moves with the domain size and epsilon. Section 7 of
// the paper poses strategy selection as the open problem; the advisor
// answers it analytically, before any budget is spent.
//
// Workload collects the weighted queries an analyst plans to ask —
// Add for ranges, SetGrid/AddRect for rectangles — and Recommend ranks
// every strategy the workload has inputs for by predicted expected
// total squared error. Each Prediction carries a Confidence tag:
// "exact" means a closed-form expectation of the linear mechanism
// (laplace, wavelet, and universal on every domain, the last from the
// paper's two inference passes at O(k log n) per query); "bound" means
// a one-sided figure that post-processing can only improve on (the
// sorted strategies' pre-isotonic noise cost, the hierarchy and quadtree
// per-node costs).
// Predictions describe the un-rounded, non-clamped mechanism; rounding
// adds at most 1/4 per cell.
//
// StrategyAuto wires the advisor through the mint path: a Request
// carrying StrategyAuto plus a WorkloadSketch (weighted ranges, rects,
// or a named preset — "points", "prefixes", "all_ranges", or the
// count-of-counts workload "count_of_counts") is resolved to the
// predicted-best concrete strategy before any budget is charged, then
// minted normally. The resolution is stamped on the release as an
// AutoDecision — chosen strategy, predicted error, the full ranked
// field it beat — retrievable via ReleaseDecision and carried through
// the JSON wire form, so provenance survives round-trips and durable
// store recovery. Over HTTP, POST /v1/release and /v1/releases accept
// "strategy": "auto" with a "workload" sketch, GET /v1/strategies
// advertises "auto", and /v1/stats counts resolutions per chosen
// strategy. Journals and store entries always record the concrete
// strategy, never the sentinel.
//
// # Serving range queries: mint, compile, serve
//
// Minting a release spends budget; querying it afterwards is free, so a
// deployment mints rarely and queries at traffic. The read path is a
// three-stage pipeline:
//
//   - Mint (or decode, or recover): a pipeline produces a Release — the
//     only step that costs epsilon.
//   - Compile: every in-library release compiles an immutable query
//     plan (internal/plan) at construction and again on DecodeRelease,
//     into one of four execution modes — "prefix" (O(1) prefix-sum
//     lookups, the positional and sorted strategies and exactly
//     consistent hierarchies), "tree-offset" (a branch-free O(log n)
//     walk over per-level prefix tables when post-processing left the
//     hierarchy inconsistent), "sat" (O(1) summed-area lookups for a
//     consistent quadtree), and "quadtree-offset" (the per-level walk
//     with one summed-area table per quadtree level). Plans answer
//     validated queries without allocating, for all seven strategies.
//   - Serve: QueryBatch answers many RangeSpec queries [Lo, Hi) against
//     one release in a single call. The batch is the unit of execution:
//     one branch-free validation pre-pass over every spec, then a
//     columnar split into pooled lo/hi arrays swept by the plan's batch
//     kernels (plan.RangeBatchInto/RectBatchInto). Batches at or above
//     a per-mode crossover threshold (1024 specs for the offset-table
//     modes, 8192 for the O(1) modes) are partitioned across a bounded
//     process-wide worker pool of GOMAXPROCS goroutines on cache-line-
//     aligned chunk boundaries; answers are bit-identical to the scalar
//     path either way. The pool stays because it pays: on 10,000-spec
//     batches, serial execution raised the serving benchmark's median
//     query latency by 12–32%. QueryBatchInto reuses a caller-owned
//     result buffer so steady-state serving allocates nothing at all.
//
// Store carries the retention side: releases behind names — versioned
// (every Put under a name bumps its version, monotonically, even across
// deletion) and safe for concurrent use. A release was paid for in
// epsilon, so it stays until Delete removes it. Store.Mint charges a
// Session and retains the result in one step; Store.Query answers a
// range batch against a stored release by name. Each shard entry keeps
// the compiled plan next to the release, and the query paths snapshot
// both under a brief read lock and compute the whole batch outside it —
// a 100k-range batch never stalls a concurrent Put on the same shard.
//
// There is no answer cache on top of the plans: hashing and copying a
// batch for a lookup costs about as much as answering it from the plan,
// and batches that never repeat would only pin memory.
//
// Range semantics are uniform across all release types: intervals are
// half-open, the empty query lo == hi answers 0, and out-of-bounds or
// inverted ranges fail. Releases are self-contained — the exported
// raw-answer slices (Noisy, Inferred) are copies, so nothing an analyst
// mutates can desynchronize Counts, Range, or Total.
//
// # Serving rectangle queries (2-D)
//
// The 2-D release is a first-class citizen of the same serving engine.
// A RectSpec names the half-open axis-aligned rectangle
// [X0, X1) x [Y0, Y1) over the release's Width() x Height() cell grid;
// empty rectangles answer 0, and every answer equals the sum of the
// published cells it covers (exactly when the post-processed quadtree
// is consistent). QueryRects and QueryRectsInto are the batch engine —
// all-or-nothing validation, then a per-rectangle fast path:
//
//   - With WithoutNonNegativity and WithoutRounding the quadtree is
//     exactly consistent and the compiled plan carries a summed-area
//     table, answering any rectangle in O(1) with four lookups and zero
//     allocations — the 2-D analogue of the 1-D prefix-sum path.
//   - Otherwise the plan answers each rectangle by the quadtree-offset
//     walk — eight summed-area lookups per quadtree level, O(log side)
//     total, still allocation-free — which keeps the non-negativity
//     truncation bias bounded per query instead of growing with the
//     rectangle's area.
//
// Rectangle batches flow through the same store snapshot as range
// batches (Store.QueryRects).
//
// Store.QueryRects serves rectangle batches against a stored release by
// name, and Universal2DRelease also answers the 1-D Release interface
// (Counts row-major, Range over row-major order), so generic tooling —
// listing, budgets, journaling, recovery — needs no special cases.
//
// The internal/server package (run it via cmd/dphist-server) exposes
// this layer over HTTP: POST /v1/releases mints-and-stores, GET
// /v1/releases lists, POST /v1/query answers a whole range batch in one
// round trip, and POST /v1/query2d does the same for rectangle batches
// against universal2d releases. Every route also exists
// namespace-scoped under /v1/ns/{ns}/..., plus GET /healthz and GET
// /v1/stats for ops.
//
// Namespace and release names are validated at the store boundary
// (ValidateName): empty names, the dot segments "." and "..", and names
// containing "/" are refused with ErrBadName before any state — or any
// budget — is spent on them, because such names cannot survive as URL
// path segments under /v1/ns/{ns}/.... Anything else is legal; clients
// composing URLs percent-escape the segment (server.NamespacePath).
//
// # Operations: durability, namespaces, and the budget ledger
//
// Minting is permanent in the privacy sense — epsilon, once spent, never
// comes back — so the bookkeeping must be permanent in the systems sense
// too. An in-memory Store that forgets Accountant state on restart turns
// every crash into a budget-reset oracle: the restarted server would
// happily re-admit spending that already happened, and the deployment's
// sequential-composition bound would be fiction. OpenStore closes that
// hole:
//
//	store, err := dphist.OpenStore("/var/lib/dphist", dphist.WithBudget(2.0))
//	defer store.Close()
//
// Every put, delete, and budget charge is appended to a checksummed
// write-ahead log (internal/journal) and fsynced before it is
// acknowledged; the log is periodically folded into an atomically
// replaced snapshot (WithSnapshotEvery), which streams to its file one
// release at a time, so writing it holds one encoded release and a
// write buffer however large the store grows. Reopening the directory
// replays snapshot + log: all acknowledged releases answer identically,
// all version counters continue, and every namespace's Spent() is
// exactly what was admitted before the crash. Recovery truncates a torn
// final record (indistinguishable from a crashed, unacknowledged
// append) and fails loudly on corruption anywhere else — a store that
// cannot prove its ledger refuses to serve rather than under-report
// spent budget. WithoutSync trades the
// fsync-per-record for speed in tests and benchmarks.
//
// Store.Namespace(name) scopes a view with its own release keyspace and
// its own Accountant (budget total from WithBudget), so one store
// serves many tenants with independent ledgers; the plain Store methods
// are the "default" namespace. Get/Query traffic spreads across hash
// shards (WithShards) under read locks, so hot metadata reads do not
// serialize on one mutex.
//
// # Streaming ingest and continual release
//
// The store serves histograms that exist; internal/ingest is the write
// path that keeps making them. A sharded pipeline absorbs event streams
// (each event a (namespace, stream, bucket, weight) arrival) and on an
// epoch schedule drains its accumulators, minting each stream's
// histogram as a versioned release — "clicks@epoch-42" — through the
// same Session path as any other mint: one budget charge per epoch,
// journaled on a durable store so a restart resumes the epoch sequence
// exactly, without re-charging. Disjoint epochs compose in parallel, so
// a sliding window summing the last W epoch releases (ComposeSum) is
// pure post-processing: "clicks@window" costs nothing and carries the
// maximum member epsilon, not the sum. Between mints, an optional
// continual-count surface (internal/stream, the binary mechanism of
// Chan et al. from Section 6's streaming discussion) answers private
// running totals per bucket at one extra per-stream charge.
//
// ComposeSum is the library-level piece: it sums already-minted
// releases of equal domain into a flat histogram release, drawing no
// noise and charging no budget.
//
// # Cluster mode: replication and read fan-out
//
// The write-ahead log, read forward, is a complete recipe for becoming
// the store that wrote it — so cluster mode promotes it to a
// replication log. NewReplica (in-memory) and OpenReplica (durable)
// open a read-only follower store whose only mutator is Apply: it
// admits primary-sequenced journal records in order, routing each
// through the same code path boot recovery uses, and refuses local
// writes with ErrReadOnly. The internal/replica tailer feeds it over
// HTTP — bootstrapping from GET /v1/repl/snapshot, then long-polling
// GET /v1/repl/stream?from=seq for NDJSON records — and converges to a
// bit-identical replica: same noisy answers, same version counters,
// same Spent() to the last float bit. JournalSeq, AppliedSeq, and
// SnapshotSeq expose the frontiers on both sides; /v1/stats reports
// them plus replication_lag_records, so lag is a subtraction, not a
// guess. A torn tail in a shipped chunk is discarded and re-polled
// exactly like boot recovery truncating a torn WAL record; a corrupt
// or gap-sequence record fails the tailer loudly and permanently — a
// replica that cannot prove it mirrors the ledger refuses to drift
// silently. If the primary has compacted past the follower's cursor
// the stream answers 410 and the tailer re-bootstraps from a fresh
// snapshot.
//
// internal/cluster adds the read fan-out: a consistent-hash ring maps
// namespaces to shards (stable under shard addition and removal), and
// a reverse-proxy router (cmd/dphist-router) pins writes to each
// shard's primary while rotating reads across its replicas, failing
// over to the next replica — and finally the primary — on connection
// errors or 5xx. Replication is privacy-neutral: the log ships
// already-noised releases and ledger charges, nothing is
// re-randomized on replay, and adding replicas or routers changes
// where a fixed release is served from, never how many times epsilon
// is spent.
//
// # Serving performance
//
// The HTTP query hot path (POST /v1/query and /v1/query2d in
// internal/server) allocates once per request at steady state: request
// bodies land in pooled buffers, one hand-rolled streaming parser for
// both routes — fuzz-proven equivalent to encoding/json on the request
// grammar, including field-name folding, duplicate-key and null
// semantics, string escapes, and integer range — fills pooled spec
// slices, batch answers flow through Namespace.QueryInto or
// QueryRectsInto into pooled result slices, and the response is
// encoded with an append-based writer that matches json.Encoder byte
// for byte. The one remaining allocation is the Content-Type header
// write inside net/http. Spec elements written exactly as json.Marshal
// writes them ({"lo":D,"hi":D}, no whitespace) take a fast path about
// four times faster than the general parser, which decodes every
// element that differs from its first byte.
//
// The mint path formats each release once per destination with
// AppendRelease, the one encoder behind every MarshalJSON: the server
// splices its bytes into the mint reply, and a durable store writes
// them unchanged into the journal put record (encoding before it takes
// any store lock) and into snapshots. Nothing re-scans them, and the
// replication stream ships each journal record through the same record
// encoder. Whole-number counts, which rounded releases carry, format
// through an integer fast path. All of these writers share the
// internal/jsonw primitives and produce exactly json.Marshal's bytes.
//
// servebench/ measures the deployed server end to end, checking every
// answer against the decoded release.
//
// Baselines from the paper are included for comparison: the
// sort-and-round estimator S~r (UnattributedRelease.SortRoundBaseline)
// and the no-inference tree H~ (UniversalRelease.RangeNoisy).
//
// All randomness is deterministic given the Mechanism seed, which makes
// experiments reproducible; distinct releases from one Mechanism use
// independent noise streams.
package dphist
