// Package ingest is the write-path counterpart of the release store: a
// sharded pipeline that absorbs high-rate event streams and mints epoch
// and sliding-window histogram releases on a schedule, turning the
// paper's static mint-once/query-forever deployment into a continual-
// release one (the continual-observation scenario family of Nelson &
// Reuben's SoK; Chan et al.'s counter is the per-bucket live surface).
//
// Shape of the pipeline:
//
//   - Intake. Ingest(ns, events) hashes each event by (namespace,
//     stream, bucket) onto one of N worker shards and ships per-shard
//     batches over a bounded channel — callers feel backpressure instead
//     of unbounded queueing. Each worker owns one histogram buffer per
//     (namespace, stream) it has seen, so the hot path is a map lookup
//     and a float add with no cross-shard locks.
//
//   - Epochs. Every Epoch interval the scheduler drains all shards,
//     merges the per-shard buffers, and mints one release per
//     (namespace, stream) through the store's Session path: any
//     registered strategy, budget charged per epoch via the namespace
//     Accountant, stored under the versioned name "<stream>@epoch-<n>"
//     with a "<stream>@latest" alias. On a durable store the mint is
//     journaled by the existing Put/charge records, and the epoch
//     sequence is recovered from the store's persistent version
//     counters — a kill-and-restart resumes exactly, without
//     re-charging for epochs already minted.
//
//   - Windows. With Window W > 1, each mint also composes the last W
//     epoch releases into "<stream>@window" via dphist.ComposeSum —
//     pure post-processing (each event lands in exactly one epoch, so
//     the window is parallel composition over its members), costing no
//     budget. Old epochs stay in the store until Retain deletes them.
//
//   - Live counts. With LiveEpsilon > 0, each (namespace, stream,
//     bucket) gets a private continual counter (internal/stream) fed by
//     the worker that owns the bucket, so running totals are queryable
//     between epoch mints. Buckets partition a stream's events, so the
//     per-stream cost is LiveEpsilon by parallel composition; it is
//     charged to the namespace Accountant once per (namespace, stream)
//     per process lifetime — a restart starts fresh counters (fresh
//     noise, a genuinely new release sequence) and correctly charges
//     again. Counters assume arrival times are observable (the standard
//     continual-observation model); only the counts are protected.
//
// Budget exhaustion is not an error the pipeline can repair: a refused
// epoch charge drops that epoch's drained counts (they could never be
// released anyway) and is surfaced through Stats.MintFailures.
package ingest

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/laplace"
	"github.com/dphist/dphist/internal/stream"
)

// ErrClosed reports an operation on an ingester after Close.
var ErrClosed = errors.New("ingest: ingester is closed")

// ErrLiveDisabled reports a live-count query against a stream whose
// continual counters are off: LiveEpsilon is zero, or the namespace
// budget refused the per-stream charge.
var ErrLiveDisabled = errors.New("ingest: live count surface disabled")

// DefaultLiveHorizon is the per-bucket continual-counter horizon when
// Config.LiveHorizon is zero: enough for a million arrivals per bucket
// at O(log) memory and noise scale 21/eps.
const DefaultLiveHorizon = 1 << 20

// queueLen bounds each worker's batch queue, in batches; past it Ingest
// blocks, which is the backpressure contract.
const queueLen = 256

// EpochName returns the versioned store name of a stream's n-th epoch
// release (1-based): "clicks@epoch-42".
func EpochName(stream string, n int) string {
	return fmt.Sprintf("%s@epoch-%d", stream, n)
}

// LatestName returns the store name aliasing a stream's most recent
// epoch release. Its version counter equals the number of epochs ever
// minted for the stream, which is how a restarted ingester resumes the
// sequence.
func LatestName(stream string) string { return stream + "@latest" }

// WindowName returns the store name of a stream's sliding-window
// release: the sum of its last Window epochs.
func WindowName(stream string) string { return stream + "@window" }

// Event is one arrival on a named stream within the posting namespace:
// the unit at position Bucket grows by Weight.
type Event struct {
	// Stream names the histogram the event belongs to; each stream mints
	// its own epoch releases.
	Stream string `json:"stream"`
	// Bucket is the histogram position in [0, Domain).
	Bucket int `json:"bucket"`
	// Weight is the contribution (how much the bucket's count grows);
	// zero means 1. Negative, NaN, and infinite weights are dropped.
	Weight float64 `json:"weight,omitempty"`
}

// Config describes an ingest pipeline.
type Config struct {
	// Store retains the minted releases and owns the per-namespace
	// budgets. Open it with dphist.OpenStore for a durable pipeline.
	// Required.
	Store *dphist.Store
	// Mechanism runs the epoch release pipelines. Required.
	Mechanism *dphist.Mechanism
	// Domain is the number of buckets per stream histogram. Required.
	Domain int
	// Epoch is the mint interval. Required positive.
	Epoch time.Duration
	// Strategy is the epoch release pipeline (default StrategyUniversal).
	// StrategyHierarchy and StrategyUniversal2D need inputs an event
	// stream does not carry and are rejected.
	Strategy dphist.Strategy
	// Epsilon is the privacy cost charged per epoch mint. Required
	// positive.
	Epsilon float64
	// Window composes the last Window epochs into a rolling
	// "<stream>@window" release on every mint; 0 or 1 disables it.
	Window int
	// Shards is the worker count (default 4). Events hash by (namespace,
	// stream, bucket), so one bucket is always owned by one worker.
	Shards int
	// Retain, when positive, deletes "<stream>@epoch-<n-Retain>" as
	// epoch n is minted, bounding live epochs per stream; with Retain
	// zero every epoch stays in the store until deleted.
	Retain int
	// LiveEpsilon enables the continual-count surface at this per-stream
	// privacy cost (charged once per namespace/stream per process
	// lifetime); 0 disables it.
	LiveEpsilon float64
	// LiveHorizon caps arrivals per bucket counter (default
	// DefaultLiveHorizon).
	LiveHorizon int
	// Seed drives the live counters' noise streams.
	Seed uint64
}

// Stats is the pipeline's cumulative scorecard.
type Stats struct {
	// Events counts accepted events; Dropped counts events refused at
	// intake (bucket out of range, bad weight).
	Events  int64 `json:"events"`
	Dropped int64 `json:"dropped"`
	// Batches counts Ingest calls accepted.
	Batches int64 `json:"batches"`
	// Streams counts distinct (namespace, stream) pairs ever seen.
	Streams int64 `json:"streams"`
	// Flushes counts epoch drains (scheduled and manual); EpochMints and
	// MintFailures count per-stream mint outcomes within them.
	Flushes      int64 `json:"flushes"`
	EpochMints   int64 `json:"epoch_mints"`
	MintFailures int64 `json:"mint_failures"`
	// LiveCounters counts live per-bucket counters created;
	// LiveExhausted counts events past a counter's horizon (the counter
	// freezes at its last estimate).
	LiveCounters  int64 `json:"live_counters"`
	LiveExhausted int64 `json:"live_exhausted"`
	// LastFlushMicros is the wall time of the most recent flush.
	LastFlushMicros int64 `json:"last_flush_micros"`
}

// nsStream addresses one stream inside a namespace.
type nsStream struct{ ns, stream string }

// accum is one worker's state for one (namespace, stream): the epoch
// histogram buffer being accumulated, plus the live counters for the
// buckets this shard owns.
type accum struct {
	counts   []float64
	live     bool
	counters map[int]*stream.Counter
}

// drainReply carries one shard's buffers out of a drain.
type drainReply map[nsStream][]float64

// liveQuery asks a shard for the current estimates of the buckets it
// owns for one stream.
type liveQuery struct {
	key     nsStream
	buckets []int
	reply   chan []float64 // aligned with buckets
}

// shardMsg is the worker channel's message union: exactly one field set.
type shardMsg struct {
	ns     string
	events []Event
	drain  chan drainReply
	query  *liveQuery
}

type shard struct {
	ch  chan shardMsg
	acc map[nsStream]*accum
}

// Ingester is the sharded ingest pipeline. Construct with New, launch
// with Start, and Close before closing the store. All methods are safe
// for concurrent use.
type Ingester struct {
	cfg Config

	shards []*shard

	mu     sync.RWMutex // guards closed against channel sends
	closed bool

	flushMu sync.Mutex // serializes drains and shutdown
	stopped bool       // workers gone; guarded by flushMu

	schedStop chan struct{}
	schedDone chan struct{}
	wg        sync.WaitGroup

	sessMu   sync.Mutex
	sessions map[string]*dphist.Session

	streamMu sync.Mutex
	seen     map[nsStream]bool // value: live surface allowed

	counterSeq atomic.Int64

	events, dropped, batches, streams atomic.Int64
	flushes, epochMints, mintFailures atomic.Int64
	liveCounters, liveExhausted       atomic.Int64
	lastFlushMicros                   atomic.Int64
}

// New validates the configuration and returns an idle ingester; Start
// launches its workers and epoch scheduler.
func New(cfg Config) (*Ingester, error) {
	if cfg.Store == nil {
		return nil, errors.New("ingest: nil store")
	}
	if cfg.Mechanism == nil {
		return nil, errors.New("ingest: nil mechanism")
	}
	if cfg.Domain < 1 {
		return nil, fmt.Errorf("ingest: domain %d < 1", cfg.Domain)
	}
	if cfg.Epoch <= 0 {
		return nil, fmt.Errorf("ingest: epoch interval %v must be positive", cfg.Epoch)
	}
	if !(cfg.Epsilon > 0) {
		return nil, fmt.Errorf("ingest: per-epoch epsilon %v must be positive", cfg.Epsilon)
	}
	if !cfg.Strategy.Valid() {
		return nil, fmt.Errorf("ingest: invalid strategy %d", int(cfg.Strategy))
	}
	if cfg.Strategy == dphist.StrategyHierarchy || cfg.Strategy == dphist.StrategyUniversal2D {
		return nil, fmt.Errorf("ingest: strategy %v needs inputs an event stream does not carry", cfg.Strategy)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 || cfg.Shards > 1024 {
		return nil, fmt.Errorf("ingest: shard count %d outside [1, 1024]", cfg.Shards)
	}
	if cfg.LiveHorizon <= 0 {
		cfg.LiveHorizon = DefaultLiveHorizon
	}
	in := &Ingester{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		schedStop: make(chan struct{}),
		schedDone: make(chan struct{}),
		sessions:  make(map[string]*dphist.Session),
		seen:      make(map[nsStream]bool),
	}
	for i := range in.shards {
		in.shards[i] = &shard{
			ch:  make(chan shardMsg, queueLen),
			acc: make(map[nsStream]*accum),
		}
	}
	return in, nil
}

// Start launches the shard workers and the epoch scheduler.
func (in *Ingester) Start() {
	for _, sh := range in.shards {
		in.wg.Add(1)
		go in.worker(sh)
	}
	go in.scheduler()
}

// scheduler mints an epoch every Config.Epoch until Close.
func (in *Ingester) scheduler() {
	defer close(in.schedDone)
	ticker := time.NewTicker(in.cfg.Epoch)
	defer ticker.Stop()
	for {
		select {
		case <-in.schedStop:
			return
		case <-ticker.C:
			// Flush failures (budget exhaustion, store closed mid-
			// shutdown) are recorded in Stats; the schedule keeps going
			// because later epochs are independent of earlier failures.
			_, _ = in.Flush()
		}
	}
}

// shardFor hashes (namespace, stream, bucket) onto a worker, FNV-1a with
// separators so field boundaries cannot collide. All events of one
// bucket land on one worker — the single writer its live counter needs.
func (in *Ingester) shardFor(ns, strm string, bucket int) int {
	if len(in.shards) == 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(ns); i++ {
		h = (h ^ uint64(ns[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(strm); i++ {
		h = (h ^ uint64(strm[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	v := uint64(bucket)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime64
		v >>= 8
	}
	return int(h % uint64(len(in.shards)))
}

// Ingest absorbs a batch of events into namespace ns, blocking when the
// owning shards' queues are full (backpressure). It returns how many
// events were accepted; events with an out-of-range bucket, a bad
// stream name, or a negative or non-finite weight are dropped and
// counted in Stats.Dropped.
func (in *Ingester) Ingest(ns string, events []Event) (int, error) {
	if ns == "" {
		ns = dphist.DefaultNamespace
	}
	if err := dphist.ValidateName(ns); err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, nil
	}
	perShard := make([][]Event, len(in.shards))
	accepted := 0
	for _, e := range events {
		if e.Bucket < 0 || e.Bucket >= in.cfg.Domain ||
			e.Weight < 0 || e.Weight != e.Weight || e.Weight > 1e308 ||
			dphist.ValidateName(e.Stream) != nil {
			in.dropped.Add(1)
			continue
		}
		idx := in.shardFor(ns, e.Stream, e.Bucket)
		perShard[idx] = append(perShard[idx], e)
		accepted++
	}
	if accepted == 0 {
		return 0, nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if in.closed {
		return 0, ErrClosed
	}
	for idx, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		in.shards[idx].ch <- shardMsg{ns: ns, events: batch}
	}
	in.events.Add(int64(accepted))
	in.batches.Add(1)
	return accepted, nil
}

// worker is one shard's loop: it owns the shard's accumulators
// exclusively, so event application needs no locks at all.
func (in *Ingester) worker(sh *shard) {
	defer in.wg.Done()
	for msg := range sh.ch {
		switch {
		case msg.drain != nil:
			out := make(drainReply, len(sh.acc))
			for key, a := range sh.acc {
				has := false
				for _, v := range a.counts {
					if v != 0 {
						has = true
						break
					}
				}
				if has {
					out[key] = a.counts
					a.counts = make([]float64, in.cfg.Domain)
				}
			}
			msg.drain <- out
		case msg.query != nil:
			q := msg.query
			answers := make([]float64, len(q.buckets))
			if a := sh.acc[q.key]; a != nil && a.counters != nil {
				for i, b := range q.buckets {
					if c := a.counters[b]; c != nil {
						answers[i], _ = c.Last()
					}
				}
			}
			q.reply <- answers
		default:
			for _, e := range msg.events {
				key := nsStream{msg.ns, e.Stream}
				a := sh.acc[key]
				if a == nil {
					a = &accum{
						counts: make([]float64, in.cfg.Domain),
						live:   in.registerStream(key),
					}
					if a.live {
						a.counters = make(map[int]*stream.Counter)
					}
					sh.acc[key] = a
				}
				w := e.Weight
				if w == 0 {
					w = 1
				}
				a.counts[e.Bucket] += w
				if a.live {
					c := a.counters[e.Bucket]
					if c == nil {
						src := laplace.Stream(in.cfg.Seed, int(in.counterSeq.Add(1)))
						c, _ = stream.NewCounter(in.cfg.LiveEpsilon, in.cfg.LiveHorizon, src)
						a.counters[e.Bucket] = c
						in.liveCounters.Add(1)
					}
					if _, err := c.Feed(w); err != nil {
						// Horizon exhausted: the counter freezes at its
						// last estimate rather than overspending its
						// privacy analysis.
						in.liveExhausted.Add(1)
					}
				}
			}
		}
	}
}

// registerStream records the first sighting of a (namespace, stream)
// pair and, when the live surface is on, charges its per-stream epsilon
// to the namespace budget. Buckets partition the stream's events, so
// every bucket counter runs under this one charge (parallel
// composition). A refused charge disables the stream's live surface
// permanently; epoch mints are unaffected.
func (in *Ingester) registerStream(key nsStream) bool {
	in.streamMu.Lock()
	defer in.streamMu.Unlock()
	if live, ok := in.seen[key]; ok {
		return live
	}
	in.streams.Add(1)
	live := false
	if in.cfg.LiveEpsilon > 0 {
		err := in.cfg.Store.Namespace(key.ns).Accountant().
			Spend("ingest:live:"+key.stream, in.cfg.LiveEpsilon)
		live = err == nil
	}
	in.seen[key] = live
	return live
}

// LiveCounts answers the private running totals of the given buckets on
// one stream, between epoch mints, from the continual counters. Buckets
// with no arrivals yet answer 0. It fails with ErrLiveDisabled when the
// live surface is off or the stream's charge was refused.
func (in *Ingester) LiveCounts(ns, strm string, buckets []int) ([]float64, error) {
	if ns == "" {
		ns = dphist.DefaultNamespace
	}
	if err := dphist.ValidateName(ns); err != nil {
		return nil, err
	}
	if in.cfg.LiveEpsilon <= 0 {
		return nil, ErrLiveDisabled
	}
	for _, b := range buckets {
		if b < 0 || b >= in.cfg.Domain {
			return nil, fmt.Errorf("ingest: bucket %d outside domain [0, %d)", b, in.cfg.Domain)
		}
	}
	key := nsStream{ns, strm}
	in.streamMu.Lock()
	live, known := in.seen[key]
	in.streamMu.Unlock()
	if known && !live {
		return nil, fmt.Errorf("%w: budget refused the per-stream charge", ErrLiveDisabled)
	}
	answers := make([]float64, len(buckets))
	if len(buckets) == 0 {
		return answers, nil
	}
	// Partition the buckets by owning shard and let each worker answer
	// its own counters — the query serializes with that shard's feeds,
	// so every answer is a released estimate, never a torn read.
	type part struct {
		buckets []int
		pos     []int
	}
	parts := make(map[int]*part)
	for i, b := range buckets {
		idx := in.shardFor(ns, strm, b)
		p := parts[idx]
		if p == nil {
			p = &part{}
			parts[idx] = p
		}
		p.buckets = append(p.buckets, b)
		p.pos = append(p.pos, i)
	}
	in.mu.RLock()
	if in.closed {
		in.mu.RUnlock()
		return nil, ErrClosed
	}
	replies := make([]*liveQuery, 0, len(parts))
	queries := make([]*part, 0, len(parts))
	for idx, p := range parts {
		q := &liveQuery{key: key, buckets: p.buckets, reply: make(chan []float64, 1)}
		in.shards[idx].ch <- shardMsg{query: q}
		replies = append(replies, q)
		queries = append(queries, p)
	}
	in.mu.RUnlock()
	for i, q := range replies {
		vals := <-q.reply
		for j, pos := range queries[i].pos {
			answers[pos] = vals[j]
		}
	}
	return answers, nil
}

// FlushResult summarizes one epoch drain.
type FlushResult struct {
	// Streams is how many (namespace, stream) pairs had data to mint.
	Streams int
	// Minted and Failed count per-stream mint outcomes.
	Minted int
	Failed int
	// Elapsed is the wall time of the whole drain-and-mint cycle.
	Elapsed time.Duration
}

// Flush synchronously drains every shard and mints one epoch release
// per (namespace, stream) that accumulated data — the operation the
// scheduler runs every Epoch interval. Streams with no new events mint
// nothing and spend nothing. The returned error joins the per-stream
// failures; successfully minted streams are unaffected by a neighbor's
// failure.
func (in *Ingester) Flush() (FlushResult, error) {
	in.flushMu.Lock()
	defer in.flushMu.Unlock()
	if in.stopped {
		return FlushResult{}, ErrClosed
	}
	return in.flushLocked()
}

// flushLocked drains and mints; the caller holds flushMu and guarantees
// the workers are alive.
func (in *Ingester) flushLocked() (FlushResult, error) {
	start := time.Now()
	// Drain every shard, then merge: a stream's buckets are spread
	// across shards, and the epoch release needs the whole histogram.
	pending := make([]chan drainReply, len(in.shards))
	for i, sh := range in.shards {
		pending[i] = make(chan drainReply, 1)
		sh.ch <- shardMsg{drain: pending[i]}
	}
	merged := make(map[nsStream][]float64)
	for _, ch := range pending {
		for key, counts := range <-ch {
			if have := merged[key]; have != nil {
				for i, v := range counts {
					have[i] += v
				}
			} else {
				merged[key] = counts
			}
		}
	}
	in.flushes.Add(1)
	keys := make([]nsStream, 0, len(merged))
	for key := range merged {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ns != keys[j].ns {
			return keys[i].ns < keys[j].ns
		}
		return keys[i].stream < keys[j].stream
	})
	res := FlushResult{Streams: len(keys)}
	var errs []error
	for _, key := range keys {
		if err := in.mintEpoch(key, merged[key]); err != nil {
			res.Failed++
			in.mintFailures.Add(1)
			errs = append(errs, fmt.Errorf("%s/%s: %w", key.ns, key.stream, err))
			continue
		}
		res.Minted++
		in.epochMints.Add(1)
	}
	res.Elapsed = time.Since(start)
	in.lastFlushMicros.Store(res.Elapsed.Microseconds())
	return res, errors.Join(errs...)
}

// nextEpoch resumes a stream's epoch sequence from the store's
// persistent version counters: the "@latest" alias is Put once per
// successful mint, so its version counts epochs minted ever — across
// restarts of a durable store. The probe past it covers the crash
// window between an epoch's Put and the alias Put: an epoch name that
// already has a version was already minted (and charged), so it is
// never re-minted.
func (in *Ingester) nextEpoch(ns *dphist.Namespace, strm string) int {
	n := ns.Version(LatestName(strm))
	for ns.Version(EpochName(strm, n+1)) > 0 {
		n++
	}
	return n + 1
}

// mintEpoch releases one stream's drained histogram as its next epoch:
// one budget charge through the Session path, a versioned Put, the
// "@latest" alias, the optional sliding-window composition (free), and
// the optional eager retention prune.
func (in *Ingester) mintEpoch(key nsStream, counts []float64) error {
	ns := in.cfg.Store.Namespace(key.ns)
	sess, err := in.session(key.ns)
	if err != nil {
		return err
	}
	n := in.nextEpoch(ns, key.stream)
	rel, _, err := ns.Mint(sess, EpochName(key.stream, n), dphist.Request{
		Strategy: in.cfg.Strategy,
		Counts:   counts,
		Epsilon:  in.cfg.Epsilon,
	})
	if err != nil {
		return err
	}
	// The alias is a second Put of the same immutable release — no copy,
	// no charge — whose version counter is the durable epoch cursor.
	if _, err := ns.Put(LatestName(key.stream), rel); err != nil {
		return err
	}
	if in.cfg.Window > 1 {
		if err := in.mintWindow(ns, key.stream, n); err != nil {
			return err
		}
	}
	if in.cfg.Retain > 0 && n > in.cfg.Retain {
		ns.Delete(EpochName(key.stream, n-in.cfg.Retain))
	}
	return nil
}

// mintWindow composes the last Window epochs ending at n into the
// rolling "<stream>@window" release. Epochs already deleted or pruned
// simply drop out of the sum — the window covers what the store still
// serves. Pure post-processing: no noise, no charge.
func (in *Ingester) mintWindow(ns *dphist.Namespace, strm string, n int) error {
	var members []dphist.Release
	for i := n - in.cfg.Window + 1; i <= n; i++ {
		if i < 1 {
			continue
		}
		if rel, _, ok := ns.Get(EpochName(strm, i)); ok {
			members = append(members, rel)
		}
	}
	window, err := dphist.ComposeSum(members...)
	if err != nil {
		return fmt.Errorf("window: %w", err)
	}
	if _, err := ns.Put(WindowName(strm), window); err != nil {
		return fmt.Errorf("window: %w", err)
	}
	return nil
}

// session returns (creating on first use) the namespace's budgeted mint
// session, charging the store's per-namespace accountant — durably when
// the store is durable.
func (in *Ingester) session(ns string) (*dphist.Session, error) {
	in.sessMu.Lock()
	defer in.sessMu.Unlock()
	if sess, ok := in.sessions[ns]; ok {
		return sess, nil
	}
	sess, err := in.cfg.Store.Namespace(ns).Session(in.cfg.Mechanism)
	if err != nil {
		return nil, err
	}
	in.sessions[ns] = sess
	return sess, nil
}

// Stats reports the cumulative counters.
func (in *Ingester) Stats() Stats {
	return Stats{
		Events:          in.events.Load(),
		Dropped:         in.dropped.Load(),
		Batches:         in.batches.Load(),
		Streams:         in.streams.Load(),
		Flushes:         in.flushes.Load(),
		EpochMints:      in.epochMints.Load(),
		MintFailures:    in.mintFailures.Load(),
		LiveCounters:    in.liveCounters.Load(),
		LiveExhausted:   in.liveExhausted.Load(),
		LastFlushMicros: in.lastFlushMicros.Load(),
	}
}

// Domain returns the configured buckets per stream.
func (in *Ingester) Domain() int { return in.cfg.Domain }

// Epoch returns the configured mint interval.
func (in *Ingester) Epoch() time.Duration { return in.cfg.Epoch }

// Window returns the sliding-window width (0 or 1 means disabled).
func (in *Ingester) Window() int { return in.cfg.Window }

// LiveEnabled reports whether the continual-count surface is configured.
func (in *Ingester) LiveEnabled() bool { return in.cfg.LiveEpsilon > 0 }

// Close stops the scheduler, mints a final epoch from whatever has
// accumulated (a partial epoch beats losing acknowledged events), and
// stops the workers. Close the ingester before closing a durable store,
// or the final mint fails with the store's ErrStoreClosed. Ingest and
// LiveCounts fail with ErrClosed afterwards; a second Close is a no-op.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	in.mu.Unlock()
	close(in.schedStop)
	<-in.schedDone
	in.flushMu.Lock()
	_, err := in.flushLocked()
	in.stopped = true
	for _, sh := range in.shards {
		close(sh.ch)
	}
	in.flushMu.Unlock()
	in.wg.Wait()
	return err
}
