package dphist

// The release store: the retention side of the serving layer. A data
// owner mints releases rarely (each one spends budget, permanently) and
// serves queries against them indefinitely, so the natural deployment
// keeps every live release in memory behind a name and answers lookups
// and range batches at traffic. Store is that retention layer: named,
// versioned, safe for concurrent use, and — opened through OpenStore —
// durable across restarts. A release was paid for in epsilon, so the
// store never drops one on its own: a release leaves only through
// Delete, which a durable store journals. Releases themselves are
// immutable, so Store hands out the stored values directly; a query
// never copies a release.
//
// Two scaling axes are built in:
//
//   - Sharding. Entries hash across N independent shards (WithShards,
//     default 8), each behind its own RWMutex, so hot Get/Query metadata
//     traffic does not serialize on one lock — and query batches
//     snapshot the release plus its compiled query plan under a brief
//     read lock and compute *outside* it, so a 100k-range batch never
//     stalls a Put.
//
//   - Namespaces. Store.Namespace(name) scopes a view onto its own
//     release keyspace and its own epsilon Accountant, so one store
//     serves many protected datasets (tenants) with independent budgets.
//     The plain Store methods are the "default" namespace.
//
// There is no answer cache: every batch is answered by the release's
// compiled plan, whose kernels cost about what hashing and copying the
// batch for a cache lookup would.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphist/dphist/internal/plan"
)

// ErrReleaseNotFound reports a Store lookup under a name that holds no
// live release: never stored, or deleted.
var ErrReleaseNotFound = errors.New("dphist: release not found")

// ErrBadName reports a namespace or release name the store refuses to
// create state under: empty, ".", "..", or containing "/". Such names
// are unroutable or ambiguous as URL path segments under the HTTP
// surface's /v1/ns/{ns}/ routes (clients and proxies normalize dot
// segments away, and a slash splits one name into two segments), so the
// store rejects them at the boundary rather than minting releases no
// serving layer can address.
var ErrBadName = errors.New("dphist: invalid name")

// ValidateName reports whether a namespace or release name is
// admissible to the store: non-empty, not "." or "..", and free of "/".
// Anything else — including names needing percent-escaping, which the
// HTTP layer handles — is allowed.
func ValidateName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty", ErrBadName)
	case name == "." || name == "..":
		return fmt.Errorf("%w: %q is a path dot segment", ErrBadName, name)
	case strings.Contains(name, "/"):
		return fmt.Errorf("%w: %q contains %q", ErrBadName, name, "/")
	}
	return nil
}

// DefaultNamespace is the namespace the plain Store methods operate on.
const DefaultNamespace = "default"

// StoreEntry describes one stored release.
type StoreEntry struct {
	// Namespace is the tenant keyspace the release is stored in; the
	// plain Store methods use DefaultNamespace.
	Namespace string
	// Name is the key the release is stored under.
	Name string
	// Version counts Puts under this namespace/name, starting at 1.
	// Versions are monotone for the lifetime of the Store — including
	// across restarts of a durable store: re-storing a name after
	// deletion continues the sequence rather than restarting it, so an
	// analyst can always tell a re-mint from a re-read.
	Version int
	// Strategy, Epsilon, and Domain summarize the release without
	// touching its counts.
	Strategy Strategy
	Epsilon  float64
	Domain   int
	// StoredAt is the Put time.
	StoredAt time.Time
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithShards fixes the number of hash shards (default 8). It panics
// unless 1 <= n <= 4096.
func WithShards(n int) StoreOption {
	if n < 1 || n > 4096 {
		panic(fmt.Sprintf("dphist: shard count %d outside [1, 4096]", n))
	}
	return func(s *Store) { s.shardCount = n }
}

// WithBudget sets the total epsilon budget each namespace Accountant is
// created with (default 1.0). It panics unless the budget is positive
// and finite, matching NewAccountant.
func WithBudget(total float64) StoreOption {
	checkBudget(total)
	return func(s *Store) { s.budget = total }
}

// defaultShards is the shard count when WithShards is not given.
const defaultShards = 8

// storeItem is one live entry. The compiled query plan rides alongside
// the release so the query paths can snapshot both under one brief read
// lock and answer whole batches outside it.
type storeItem struct {
	release Release
	plan    *plan.Plan // nil for external Release implementations
	entry   StoreEntry
}

// nsKey addresses one entry: a name inside a namespace.
type nsKey struct {
	ns   string
	name string
}

// storeShard is one independently locked slice of the keyspace. Writers
// take the write lock; readers take only the read lock, so a slow batch
// never stalls a Put on the same shard.
type storeShard struct {
	mu       sync.RWMutex
	items    map[nsKey]*storeItem
	versions map[nsKey]int // per-key Put counter; survives deletion
}

// Store is a versioned release store with hash sharding and
// per-namespace budget accounting. The zero value is not usable;
// construct with NewStore (in-memory) or OpenStore (durable). All
// methods are safe for concurrent use.
//
// The store holds every release until it is deleted: memory grows with
// the releases minted, each of which was charged against a budget.
// Version counters deliberately survive deletion (so a re-mint is
// always distinguishable from a re-read), which means the counter map
// grows with the number of distinct names ever stored — a few words per
// name. Deployments minting under unbounded fresh names should recycle
// a fixed name scheme.
type Store struct {
	shardCount int
	budget     float64
	snapEvery  int
	syncWrites bool

	shards []*storeShard

	acctMu sync.Mutex
	accts  map[string]*Accountant

	// readOnly marks a replica store: local mutations (Put, Delete,
	// Mint, Accountant.Spend) are refused with ErrReadOnly, and state
	// changes only through the Apply/Bootstrap replication surface. See
	// replica.go.
	readOnly bool
	// applyMu serializes Apply and Bootstrap on a replica.
	applyMu sync.Mutex
	// applied is the highest primary sequence folded into this store —
	// on a replica, the replication high-water mark; on a primary it
	// mirrors the journal sequence.
	applied atomic.Uint64

	persistState // all zero for in-memory stores; see persist.go
}

// NewStore returns an empty in-memory store with the given options
// applied. State dies with the process; see OpenStore for the durable
// variant.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		budget:     1.0,
		snapEvery:  defaultSnapshotEvery,
		syncWrites: true,
		accts:      make(map[string]*Accountant),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.shardCount == 0 {
		s.shardCount = defaultShards
	}
	s.shards = make([]*storeShard, s.shardCount)
	for i := range s.shards {
		s.shards[i] = &storeShard{
			items:    make(map[nsKey]*storeItem),
			versions: make(map[nsKey]int),
		}
	}
	return s
}

// shard returns the shard owning key k, by inline FNV-1a over the
// namespace and name — a few nanoseconds for typical keys, cheap enough
// for the read hot path (maphash's per-call setup is not).
func (s *Store) shard(k nsKey) *storeShard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.ns); i++ {
		h = (h ^ uint64(k.ns[i])) * prime64
	}
	h = (h ^ 0xff) * prime64 // separator: ("a","bc") must not collide with ("ab","c")
	for i := 0; i < len(k.name); i++ {
		h = (h ^ uint64(k.name[i])) * prime64
	}
	return s.shards[h%uint64(len(s.shards))]
}

// Namespace returns a scoped view of the store: its own release
// keyspace and its own epsilon Accountant, isolated from every other
// namespace. The empty name aliases DefaultNamespace, which the plain
// Store methods operate on. Namespaces spring into being on first use;
// there is no registration step.
//
// An invalid name (see ValidateName) returns an errored view: every
// operation on it fails with ErrBadName, its Accountant is nil, and no
// store state is created — check Err to distinguish the cases up front.
func (s *Store) Namespace(name string) *Namespace {
	if name == "" {
		name = DefaultNamespace
	}
	return &Namespace{s: s, name: name, err: ValidateName(name)}
}

// Namespaces returns the sorted names of every namespace that currently
// holds a live release or has an instantiated budget accountant. It only
// reads, so it takes the shard read locks and never stalls a query.
func (s *Store) Namespaces() []string {
	counts := s.NamespaceCounts()
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = c.Name
	}
	return out
}

// NamespaceCount is one namespace's number of live releases.
type NamespaceCount struct {
	Name     string
	Releases int
}

// NamespaceCounts reports every namespace Namespaces lists, sorted by
// name, with its number of live releases: zero for a namespace that only
// has an accountant. It is one pass over the shards under their read
// locks, so it never stalls a query and creates no state.
func (s *Store) NamespaceCounts() []NamespaceCount {
	counts := make(map[string]int)
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.items {
			counts[k.ns]++
		}
		sh.mu.RUnlock()
	}
	s.acctMu.Lock()
	for ns := range s.accts {
		if _, ok := counts[ns]; !ok {
			counts[ns] = 0
		}
	}
	s.acctMu.Unlock()
	out := make([]NamespaceCount, 0, len(counts))
	for ns, n := range counts {
		out = append(out, NamespaceCount{Name: ns, Releases: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupAccountant returns the namespace's budget accountant if one has
// been instantiated, by a charge, a Namespace.Accountant call or
// recovery, without creating one and without touching a shard: one map
// read. A namespace without an accountant has spent nothing, so
// read-only surfaces report the untouched Budget() total for it.
func (s *Store) LookupAccountant(name string) (*Accountant, bool) {
	if name == "" {
		name = DefaultNamespace
	}
	s.acctMu.Lock()
	defer s.acctMu.Unlock()
	a, ok := s.accts[name]
	return a, ok
}

// Budget returns the total epsilon each namespace accountant is created
// with (the WithBudget option).
func (s *Store) Budget() float64 { return s.budget }

// accountant returns (creating on first use) the namespace's budget
// accountant. Durable stores wire it to the journal so every admitted
// charge is on disk before it is acknowledged.
func (s *Store) accountant(ns string) *Accountant {
	s.acctMu.Lock()
	defer s.acctMu.Unlock()
	if a, ok := s.accts[ns]; ok {
		return a
	}
	a := NewAccountant(s.budget)
	switch {
	case s.readOnly:
		// Replicas never admit local expenditure: the primary owns the
		// ledger, and shipped charges arrive through restore, which
		// bypasses the ledger by design.
		a.ledger = readOnlyLedger{}
	case s.jnl != nil:
		a.ledger = &storeLedger{s: s, ns: ns}
	}
	s.accts[ns] = a
	return a
}

// Namespace is a scoped view of a Store: one tenant's release keyspace
// plus its own epsilon budget. Obtain one with Store.Namespace; the
// zero value is not usable. All methods are safe for concurrent use.
type Namespace struct {
	s    *Store
	name string
	err  error // non-nil when the namespace name failed ValidateName
}

// Name returns the namespace's name.
func (n *Namespace) Name() string { return n.name }

// Err returns the name-validation failure this view was created with,
// or nil for a usable namespace.
func (n *Namespace) Err() error { return n.err }

// Store returns the underlying store.
func (n *Namespace) Store() *Store { return n.s }

// Accountant returns the namespace's budget accountant, created with
// the store's WithBudget total on first use. In a durable store its
// charges flow through the journal, so Spent() survives restarts. It is
// nil for an errored view (see Err): an invalid name must not bring
// budget state into being.
func (n *Namespace) Accountant() *Accountant {
	if n.err != nil {
		return nil
	}
	return n.s.accountant(n.name)
}

// Remaining returns the namespace's unspent budget, or 0 for an errored
// view.
func (n *Namespace) Remaining() float64 {
	if n.err != nil {
		return 0
	}
	return n.Accountant().Remaining()
}

// Put stores the release under name in this namespace; semantics follow
// Store.Put.
func (n *Namespace) Put(name string, r Release) (StoreEntry, error) {
	if n.err != nil {
		return StoreEntry{}, n.err
	}
	return n.s.put(n.name, name, r)
}

// Get returns the live release stored under name in this namespace;
// semantics follow Store.Get.
func (n *Namespace) Get(name string) (Release, StoreEntry, bool) {
	if n.err != nil {
		return nil, StoreEntry{}, false
	}
	return n.s.get(n.name, name)
}

// Query answers a batch of range queries against the release stored
// under name in this namespace; semantics follow Store.Query.
func (n *Namespace) Query(name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	if n.err != nil {
		return nil, StoreEntry{}, n.err
	}
	return n.s.query(n.name, name, specs)
}

// QueryInto is Query appending into dst; buffer-reuse semantics follow
// Store.QueryInto.
func (n *Namespace) QueryInto(dst []float64, name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	if n.err != nil {
		return dst, StoreEntry{}, n.err
	}
	return n.s.queryInto(dst, n.name, name, specs)
}

// QueryRects answers a batch of rectangle queries against the 2-D
// release stored under name in this namespace; semantics follow
// Store.QueryRects.
func (n *Namespace) QueryRects(name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	if n.err != nil {
		return nil, StoreEntry{}, n.err
	}
	return n.s.queryRects(n.name, name, specs)
}

// QueryRectsInto is QueryRects appending into dst; buffer-reuse
// semantics follow Store.QueryInto.
func (n *Namespace) QueryRectsInto(dst []float64, name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	if n.err != nil {
		return dst, StoreEntry{}, n.err
	}
	return n.s.queryRectsInto(dst, n.name, name, specs)
}

// List returns the metadata of every live entry in this namespace,
// sorted by name.
func (n *Namespace) List() []StoreEntry {
	if n.err != nil {
		return []StoreEntry{}
	}
	return n.s.list(n.name)
}

// Delete removes the entry under name in this namespace, reporting
// whether a live entry was removed.
func (n *Namespace) Delete(name string) bool {
	if n.err != nil {
		return false
	}
	return n.s.delete(n.name, name)
}

// Len returns the number of live entries in this namespace.
func (n *Namespace) Len() int {
	if n.err != nil {
		return 0
	}
	return n.s.length(n.name)
}

// Version returns the name's current Put counter in this namespace — the
// number of times the name has ever been stored — or 0 if it never was.
// Unlike Get, it answers for names whose releases were deleted: version
// counters deliberately outlive their entries (and, on a durable store,
// the process), which lets sequence-structured
// writers such as the ingest engine's epoch scheduler resume exactly
// where a previous process stopped.
func (n *Namespace) Version(name string) int {
	if n.err != nil {
		return 0
	}
	return n.s.version(n.name, name)
}

// Mint issues the request through the session and retains the result
// under name in this namespace; semantics follow Store.Mint. On an
// errored view nothing is charged and nothing is released.
func (n *Namespace) Mint(session *Session, name string, req Request) (Release, StoreEntry, error) {
	if n.err != nil {
		return nil, StoreEntry{}, n.err
	}
	return n.s.mint(session, n.name, name, req)
}

// Put stores the release under name in the default namespace, replacing
// any previous holder and bumping the name's version. It returns the new
// entry metadata. Storing never removes another entry. On a durable
// store the release is journaled (and by default fsynced) before Put
// returns.
func (s *Store) Put(name string, r Release) (StoreEntry, error) {
	return s.put(DefaultNamespace, name, r)
}

// Mint issues the request through the session — charging its budget —
// and retains the result under name in the default namespace. Nothing
// is stored if either step fails, and a request that fails validation
// or overdraws the budget charges nothing; the charge follows
// Session.Release semantics (made before the pipeline runs, never
// refunded), so a pipeline failure after admission still costs its
// epsilon.
func (s *Store) Mint(session *Session, name string, req Request) (Release, StoreEntry, error) {
	return s.mint(session, DefaultNamespace, name, req)
}

func (s *Store) mint(session *Session, ns, name string, req Request) (Release, StoreEntry, error) {
	if session == nil {
		return nil, StoreEntry{}, errors.New("dphist: nil session")
	}
	// Validate both names before spending: a release minted under an
	// unusable or unroutable name would burn budget for nothing.
	if err := ValidateName(ns); err != nil {
		return nil, StoreEntry{}, fmt.Errorf("namespace: %w", err)
	}
	if err := ValidateName(name); err != nil {
		return nil, StoreEntry{}, err
	}
	// Refuse before Session.Release runs: a mint on a replica must not
	// charge the session's budget for a release that cannot be stored.
	if s.readOnly {
		return nil, StoreEntry{}, ErrReadOnly
	}
	rel, err := session.Release(req)
	if err != nil {
		return nil, StoreEntry{}, err
	}
	entry, err := s.put(ns, name, rel)
	if err != nil {
		return nil, StoreEntry{}, err
	}
	return rel, entry, nil
}

// Get returns the live release stored under name in the default
// namespace and its metadata. The boolean reports whether the name held
// a live release.
func (s *Store) Get(name string) (Release, StoreEntry, bool) {
	return s.get(DefaultNamespace, name)
}

// Query answers a batch of range queries against the release stored
// under name in the default namespace. It fails with
// ErrReleaseNotFound when the name holds no live release; spec
// validation follows QueryBatch. The release is read outside the store
// lock, so long batches do not block other store traffic.
func (s *Store) Query(name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	return s.query(DefaultNamespace, name, specs)
}

// QueryInto is Query appending into dst, so a serving loop can reuse one
// result buffer across batches and keep the steady-state allocation
// count at zero. dst may be nil. On error dst is returned truncated to its original length,
// never with a partial batch appended.
func (s *Store) QueryInto(dst []float64, name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	return s.queryInto(dst, DefaultNamespace, name, specs)
}

// QueryRects answers a batch of rectangle queries against the 2-D
// release stored under name in the default namespace. It fails with
// ErrReleaseNotFound when the name holds no live release and with
// ErrNotRectangular when the stored release answers no rectangle
// queries; spec validation follows QueryRects. Like Query, the release
// is read outside the store lock.
func (s *Store) QueryRects(name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	return s.queryRects(DefaultNamespace, name, specs)
}

// QueryRectsInto is QueryRects appending into dst; buffer-reuse
// semantics follow QueryInto.
func (s *Store) QueryRectsInto(dst []float64, name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	return s.queryRectsInto(dst, DefaultNamespace, name, specs)
}

// List returns the metadata of every live entry in the default
// namespace, sorted by name.
func (s *Store) List() []StoreEntry { return s.list(DefaultNamespace) }

// Delete removes the entry under name in the default namespace,
// reporting whether a live entry was removed. The name's version counter
// is kept, so a later Put continues the sequence.
func (s *Store) Delete(name string) bool { return s.delete(DefaultNamespace, name) }

// Len returns the number of live entries in the default namespace.
func (s *Store) Len() int { return s.length(DefaultNamespace) }

func (s *Store) put(ns, name string, r Release) (StoreEntry, error) {
	if err := ValidateName(ns); err != nil {
		return StoreEntry{}, fmt.Errorf("namespace: %w", err)
	}
	if err := ValidateName(name); err != nil {
		return StoreEntry{}, err
	}
	if r == nil {
		return StoreEntry{}, errors.New("dphist: nil release")
	}
	if s.readOnly {
		return StoreEntry{}, ErrReadOnly
	}
	var payload []byte
	if s.jnl != nil {
		// Encode before taking any lock: formatting a large release takes
		// about a millisecond, and under the shard's write lock it would
		// stall every read of every name on the shard.
		var err error
		if payload, err = AppendRelease(nil, r); err != nil {
			return StoreEntry{}, err
		}
		s.opMu.RLock()
		if s.closed {
			s.opMu.RUnlock()
			return StoreEntry{}, ErrStoreClosed
		}
	}
	k := nsKey{ns, name}
	sh := s.shard(k)
	sh.mu.Lock()
	entry := StoreEntry{
		Namespace: ns,
		Name:      name,
		Version:   sh.versions[k] + 1,
		Strategy:  r.Strategy(),
		Epsilon:   r.Epsilon(),
		Domain:    releaseDomain(r),
		StoredAt:  time.Now(),
	}
	// Durability before visibility: the put must be on disk before any
	// reader can observe it, or a crash would forget a release the
	// analyst has already seen named metadata for.
	if err := s.journalPut(entry, payload); err != nil {
		sh.mu.Unlock()
		if s.jnl != nil {
			s.opMu.RUnlock()
		}
		return StoreEntry{}, err
	}
	sh.versions[k] = entry.Version
	sh.items[k] = &storeItem{release: r, plan: releasePlan(r), entry: entry}
	sh.mu.Unlock()
	if s.jnl != nil {
		s.opMu.RUnlock()
	}
	// Outside every lock: Snapshot takes the op write lock itself.
	s.maybeSnapshot()
	return entry, nil
}

func (s *Store) get(ns, name string) (Release, StoreEntry, bool) {
	rel, _, entry, ok := s.snapshotLive(nsKey{ns, name})
	return rel, entry, ok
}

// snapshotLive returns the live release, its compiled plan, and its
// metadata under k. It holds only a brief read lock, so slow readers
// never stall writers on the shard.
func (s *Store) snapshotLive(k nsKey) (Release, *plan.Plan, StoreEntry, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	it, ok := sh.items[k]
	if !ok {
		sh.mu.RUnlock()
		return nil, nil, StoreEntry{}, false
	}
	rel, pl, entry := it.release, it.plan, it.entry
	sh.mu.RUnlock()
	return rel, pl, entry, true
}

func (s *Store) query(ns, name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	// Presize the answer buffer: the batch engine grows dst once for the
	// whole batch, so handing it exact capacity makes the compute path a
	// single allocation.
	return s.queryInto(make([]float64, 0, len(specs)), ns, name, specs)
}

func (s *Store) queryInto(dst []float64, ns, name string, specs []RangeSpec) ([]float64, StoreEntry, error) {
	// Snapshot under the shard lock, answer outside it: a 100k-range
	// batch must never block a concurrent Put on the same shard.
	keep := len(dst)
	rel, pl, entry, ok := s.snapshotLive(nsKey{ns, name})
	if !ok {
		return dst[:keep], StoreEntry{}, fmt.Errorf("%w: %q", ErrReleaseNotFound, name)
	}
	answers, err := answerRangesInto(dst, pl, rel, specs)
	if err != nil {
		return dst[:keep], entry, err
	}
	return answers, entry, nil
}

func (s *Store) queryRects(ns, name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	return s.queryRectsInto(make([]float64, 0, len(specs)), ns, name, specs)
}

func (s *Store) queryRectsInto(dst []float64, ns, name string, specs []RectSpec) ([]float64, StoreEntry, error) {
	keep := len(dst)
	rel, pl, entry, ok := s.snapshotLive(nsKey{ns, name})
	if !ok {
		return dst[:keep], StoreEntry{}, fmt.Errorf("%w: %q", ErrReleaseNotFound, name)
	}
	answers, err := answerRectsInto(dst, pl, rel, specs)
	if err != nil {
		return dst[:keep], entry, err
	}
	return answers, entry, nil
}

// list and length only read: they take the shard read locks.
func (s *Store) list(ns string) []StoreEntry {
	var out []StoreEntry
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, it := range sh.items {
			if k.ns == ns {
				out = append(out, it.entry)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if out == nil {
		out = []StoreEntry{}
	}
	return out
}

func (s *Store) delete(ns, name string) bool {
	if s.readOnly {
		return false
	}
	if s.jnl != nil {
		s.opMu.RLock()
		if s.closed {
			s.opMu.RUnlock()
			return false
		}
	}
	k := nsKey{ns, name}
	sh := s.shard(k)
	sh.mu.Lock()
	if _, ok := sh.items[k]; !ok {
		sh.mu.Unlock()
		if s.jnl != nil {
			s.opMu.RUnlock()
		}
		return false
	}
	s.journalDelete(ns, name)
	delete(sh.items, k)
	sh.mu.Unlock()
	if s.jnl != nil {
		s.opMu.RUnlock()
	}
	s.maybeSnapshot()
	return true
}

func (s *Store) version(ns, name string) int {
	k := nsKey{ns, name}
	sh := s.shard(k)
	sh.mu.RLock()
	v := sh.versions[k]
	sh.mu.RUnlock()
	return v
}

func (s *Store) length(ns string) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k := range sh.items {
			if k.ns == ns {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}
