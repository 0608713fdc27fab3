package dphist

// Durable mode for the release store. The paper's serving asymmetry —
// epsilon is spent once at mint time, queries are free forever after —
// only holds in production if both sides of the ledger survive the
// process: a store that forgets its releases wastes spent budget, and a
// store that forgets its *charges* lets a restart re-spend budget that
// is already gone, silently voiding the sequential-composition bound.
// OpenStore therefore journals every put, delete, and budget charge
// through internal/journal (write-ahead, fsynced by default) and folds
// the log into an atomically-replaced snapshot every snapshotEvery
// records. Recovery replays snapshot + log; a torn final record is
// truncated (it was never acknowledged), anything worse fails loudly.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dphist/dphist/internal/journal"
	"github.com/dphist/dphist/internal/jsonw"
)

// ErrStoreClosed reports an operation on a store after Close.
var ErrStoreClosed = fmt.Errorf("dphist: store is closed")

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.json"
	// defaultSnapshotEvery bounds WAL growth: after this many journaled
	// records the log is folded into a fresh snapshot.
	defaultSnapshotEvery = 1024
)

// persistState is the durable half of a Store; it stays zero-valued for
// in-memory stores (jnl == nil disables every persistence path).
type persistState struct {
	dir string
	jnl *journal.Journal
	// opMu orders journaled mutations against snapshots: puts, deletes,
	// and charges hold it for read around their journal-append-then-
	// commit critical section, and Snapshot holds it for write so the
	// state it collects exactly matches the WAL it resets.
	opMu   sync.RWMutex
	closed bool // guarded by opMu
	snapMu sync.Mutex
	// appended counts journal records since the last snapshot.
	appended atomic.Int64
	// snapSeq is the journal sequence the newest on-disk snapshot
	// covers — the compaction horizon a replica must bootstrap past.
	snapSeq atomic.Uint64
}

// WithSnapshotEvery sets how many journaled records accumulate before
// the write-ahead log is folded into a snapshot (default 1024). n <= 0
// disables automatic snapshots; the log then grows until Snapshot or
// Close. Only meaningful for stores opened with OpenStore.
func WithSnapshotEvery(n int) StoreOption {
	return func(s *Store) { s.snapEvery = n }
}

// WithoutSync disables the fsync after every journaled record. The
// store still recovers to a consistent prefix after a crash, but the
// prefix may be missing acknowledged events that were buffered in the
// page cache — including budget charges, which weakens the privacy
// ledger. For benchmarks and tests only.
func WithoutSync() StoreOption {
	return func(s *Store) { s.syncWrites = false }
}

// storeSnapshot is the on-disk snapshot: complete store state as of
// journal sequence Seq.
type storeSnapshot struct {
	Seq      uint64        `json:"seq"`
	SavedAt  time.Time     `json:"saved_at"`
	Entries  []snapEntry   `json:"entries"`
	Versions []snapVersion `json:"versions"`
	Charges  []snapCharge  `json:"charges"`
}

// snapEntry is one live release; the payload is the self-describing v2
// wire format, same as the journal's put records.
type snapEntry struct {
	Namespace string          `json:"ns"`
	Name      string          `json:"name"`
	Version   int             `json:"version"`
	StoredAt  time.Time       `json:"stored_at"`
	Release   json.RawMessage `json:"release"`
}

// snapVersion is one per-name Put counter. Counters are persisted
// separately from entries because they survive deletion.
type snapVersion struct {
	Namespace string `json:"ns"`
	Name      string `json:"name"`
	Version   int    `json:"version"`
}

// snapCharge is one namespace's admitted budget expenditure. Snapshots
// aggregate each namespace's ledger into a single entry — what the
// privacy guarantee needs is the spent total, and folding the history
// keeps snapshot size O(live state) instead of O(lifetime charges).
// Itemized charges still reach Accountant.Log for everything since the
// last snapshot, via the WAL.
type snapCharge struct {
	Namespace string  `json:"ns"`
	Label     string  `json:"label"`
	Epsilon   float64 `json:"epsilon"`
}

// OpenStore opens (creating if needed) a durable store rooted at dir.
// Recovery loads the newest snapshot, replays the write-ahead log on
// top of it, and truncates a torn final record; after it returns, every
// release acknowledged before the last shutdown or crash and not
// deleted since is queryable with identical answers, and every
// namespace Accountant reports exactly the budget admitted before the
// crash. Damage that cannot be a torn append — checksum failures
// mid-file, unparseable payloads, a corrupt snapshot — fails loudly
// here rather than silently under-reporting spent budget.
//
// The directory must not be shared between live processes; the store
// assumes it owns dir exclusively.
func OpenStore(dir string, opts ...StoreOption) (*Store, error) {
	return openStore(dir, false, opts...)
}

// openStore is the shared open path behind OpenStore and OpenReplica.
// Recovery is one consumer of the apply pipeline in replica.go; setting
// readOnly before replay matters because accountants materialized during
// replay must be born with the read-only ledger.
func openStore(dir string, readOnly bool, opts ...StoreOption) (*Store, error) {
	s := NewStore(opts...)
	s.readOnly = readOnly
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s.dir = dir
	var snap storeSnapshot
	found, err := journal.ReadSnapshot(filepath.Join(dir, snapshotFile), &snap)
	if err != nil {
		return nil, fmt.Errorf("dphist: open store %s: %w", dir, err)
	}
	if found {
		if err := s.applySnapshot(&snap); err != nil {
			return nil, fmt.Errorf("dphist: open store %s: snapshot: %w", dir, err)
		}
		s.snapSeq.Store(snap.Seq)
	}
	jnl, err := journal.Open(filepath.Join(dir, walFile), func(rec journal.Record) error {
		if rec.Seq <= snap.Seq {
			// Already folded into the snapshot; a crash between snapshot
			// rename and WAL reset leaves such records behind harmlessly.
			return nil
		}
		return s.applyRecord(rec)
	}, journal.WithBaseSeq(snap.Seq), journal.WithSync(s.syncWrites))
	if err != nil {
		return nil, fmt.Errorf("dphist: open store %s: %w", dir, err)
	}
	s.jnl = jnl
	// A replica's WAL carries primary sequence numbers (see Apply), so
	// the recovery point doubles as the replication high-water mark: a
	// restarted follower resumes the stream from applied+1.
	s.applied.Store(jnl.NextSeq() - 1)
	if !readOnly {
		// Accountants materialized during replay predate s.jnl; wire
		// their ledgers now so post-recovery charges are journaled.
		for ns, a := range s.accts {
			a.ledger = &storeLedger{s: s, ns: ns}
		}
	}
	return s, nil
}

// journalPut appends a put record carrying the release's wire bytes
// (AppendRelease output); the caller must not commit the entry to memory
// (or acknowledge it) unless this returns nil. A no-op for in-memory
// stores.
func (s *Store) journalPut(entry StoreEntry, payload []byte) error {
	if s.jnl == nil {
		return nil
	}
	_, err := s.jnl.Append(journal.Record{
		Op:        journal.OpPut,
		Namespace: entry.Namespace,
		Name:      entry.Name,
		Version:   entry.Version,
		StoredAt:  entry.StoredAt,
		Payload:   payload,
	})
	if err != nil {
		return err
	}
	s.appended.Add(1)
	return nil
}

// journalDelete appends a delete record. Append failures are swallowed:
// the in-memory delete proceeds (over-retaining after a crash is the
// safe direction for a *removal*), and the journal's sticky error will
// fail the next put or charge loudly.
func (s *Store) journalDelete(ns, name string) {
	if s.jnl == nil {
		return
	}
	if _, err := s.jnl.Append(journal.Record{Op: journal.OpDelete, Namespace: ns, Name: name}); err == nil {
		s.appended.Add(1)
	}
}

// storeLedger is the chargeLedger a durable store wires into its
// namespace accountants: admitted charges are journaled and fsynced
// before Spend acknowledges them.
type storeLedger struct {
	s  *Store
	ns string
}

func (l *storeLedger) begin() { l.s.opMu.RLock() }

func (l *storeLedger) end() {
	l.s.opMu.RUnlock()
	// Runs after Spend has released every lock (its defers unwind the
	// accountant mutex first), so a snapshot can safely trigger here.
	l.s.maybeSnapshot()
}

func (l *storeLedger) record(c Charge) error {
	if l.s.closed { // read under opMu.RLock, held since begin
		return ErrStoreClosed
	}
	if _, err := l.s.jnl.Append(journal.Record{
		Op:        journal.OpCharge,
		Namespace: l.ns,
		Label:     c.Label,
		Epsilon:   c.Epsilon,
	}); err != nil {
		return err
	}
	l.s.appended.Add(1)
	return nil
}

// maybeSnapshot folds the WAL into a snapshot once enough records have
// accumulated. Failures are left for the next trigger (the WAL keeps
// every record, so nothing is lost) and surface loudly on Close.
func (s *Store) maybeSnapshot() {
	if s.jnl == nil || s.snapEvery <= 0 {
		return
	}
	if s.appended.Load() < int64(s.snapEvery) {
		return
	}
	_ = s.snapshot(false)
}

// Snapshot forces the current state onto disk as a fresh snapshot and
// resets the write-ahead log. A no-op for in-memory stores.
func (s *Store) Snapshot() error { return s.snapshot(false) }

func (s *Store) snapshot(closing bool) error {
	if s.jnl == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.closed && !closing {
		return ErrStoreClosed
	}
	var seq uint64
	err := journal.WriteSnapshot(filepath.Join(s.dir, snapshotFile), func(w io.Writer) error {
		var err error
		seq, err = s.writeSnapshotLocked(w)
		return err
	})
	if err != nil {
		return err
	}
	// The snapshot is durable and covers every journaled record, so the
	// WAL can be discarded. A crash in between leaves records with
	// seq <= the snapshot's in the WAL; recovery skips them.
	if err := s.jnl.Reset(); err != nil {
		return err
	}
	s.appended.Store(0)
	s.snapSeq.Store(seq)
	return nil
}

// writeSnapshotLocked writes complete store state to w as the snapshot
// document and returns the journal sequence it covers; the caller holds
// opMu for write, so no journaled mutation is in flight and the WAL's
// last assigned sequence exactly bounds the collected state.
//
// The document is streamed, one entry at a time: each entry is appended
// into one reused buffer, its release's AppendRelease bytes written
// straight in, and the buffer goes to w before the next entry is
// encoded. A snapshot therefore holds one encoded release at a time,
// whatever the store holds. The bytes equal json.Marshal of the matching
// storeSnapshot.
func (s *Store) writeSnapshotLocked(w io.Writer) (uint64, error) {
	seq := s.jnl.NextSeq() - 1
	savedAt := time.Now()
	// Each entry's release and fields are copied under its shard's lock;
	// releases are immutable, so the encoding below runs outside them.
	type liveEntry struct {
		key      nsKey
		release  Release
		version  int
		storedAt time.Time
	}
	var entries []liveEntry
	var versions []snapVersion
	for _, sh := range s.shards {
		sh.mu.RLock()
		for k, it := range sh.items {
			entries = append(entries, liveEntry{k, it.release, it.entry.Version, it.entry.StoredAt})
		}
		for k, v := range sh.versions {
			versions = append(versions, snapVersion{Namespace: k.ns, Name: k.name, Version: v})
		}
		sh.mu.RUnlock()
	}
	s.acctMu.Lock()
	accts := make(map[string]*Accountant, len(s.accts))
	for ns, a := range s.accts {
		accts[ns] = a
	}
	s.acctMu.Unlock()
	names := make([]string, 0, len(accts))
	for ns := range accts {
		names = append(names, ns)
	}
	sort.Strings(names)
	var charges []snapCharge
	for _, ns := range names {
		spent, count := accts[ns].rawSpent()
		if count == 0 {
			continue
		}
		charges = append(charges, snapCharge{
			Namespace: ns,
			Label:     fmt.Sprintf("recovered: %d charges", count),
			Epsilon:   spent,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if !a.storedAt.Equal(b.storedAt) {
			return a.storedAt.Before(b.storedAt)
		}
		if a.key.ns != b.key.ns {
			return a.key.ns < b.key.ns
		}
		return a.key.name < b.key.name
	})
	sort.Slice(versions, func(i, j int) bool {
		a, b := versions[i], versions[j]
		if a.Namespace != b.Namespace {
			return a.Namespace < b.Namespace
		}
		return a.Name < b.Name
	})

	b := append(make([]byte, 0, 4096), `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"saved_at":`...)
	b, err := jsonw.AppendTime(b, savedAt)
	if err != nil {
		return 0, err
	}
	b = append(b, `,"entries":`...)
	b, err = writeList(w, b, len(entries), entries == nil, func(b []byte, i int) ([]byte, error) {
		e := entries[i]
		b = appendSnapHead(b, e.key.ns, e.key.name)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(e.version), 10)
		b = append(b, `,"stored_at":`...)
		b, err := jsonw.AppendTime(b, e.storedAt)
		if err != nil {
			return b, err
		}
		b = append(b, `,"release":`...)
		b, err = AppendRelease(b, e.release)
		return append(b, '}'), err
	})
	if err != nil {
		return 0, err
	}
	b = append(b, `,"versions":`...)
	// Version objects hold only strings and integers, so only w can fail.
	b, err = writeList(w, b, len(versions), versions == nil, func(b []byte, i int) ([]byte, error) {
		b = appendSnapHead(b, versions[i].Namespace, versions[i].Name)
		b = append(b, `,"version":`...)
		b = strconv.AppendInt(b, int64(versions[i].Version), 10)
		return append(b, '}'), nil
	})
	if err != nil {
		return 0, err
	}
	b = append(b, `,"charges":`...)
	b, err = writeList(w, b, len(charges), charges == nil, func(b []byte, i int) ([]byte, error) {
		b = append(b, `{"ns":`...)
		b = jsonw.AppendString(b, charges[i].Namespace)
		b = append(b, `,"label":`...)
		b = jsonw.AppendString(b, charges[i].Label)
		b = append(b, `,"epsilon":`...)
		b, err := jsonw.AppendFloat(b, charges[i].Epsilon)
		return append(b, '}'), err
	})
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(append(b, '}')); err != nil {
		return 0, err
	}
	return seq, nil
}

// writeList writes n elements as a JSON array, or null for a nil list,
// as encoding/json encodes a nil slice. Each element is appended to b by
// elem and b is written to w before the next one is encoded; the
// returned b holds the bytes after the last write, for the caller to
// continue.
func writeList(w io.Writer, b []byte, n int, isNil bool, elem func([]byte, int) ([]byte, error)) ([]byte, error) {
	if isNil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = elem(b, i); err != nil {
			return b, err
		}
		if _, err := w.Write(b); err != nil {
			return b, err
		}
		b = b[:0]
	}
	return append(b, ']'), nil
}

// appendSnapHead opens a snapshot entry or version object with its
// namespace and name.
func appendSnapHead(b []byte, ns, name string) []byte {
	b = append(b, `{"ns":`...)
	b = jsonw.AppendString(b, ns)
	b = append(b, `,"name":`...)
	return jsonw.AppendString(b, name)
}

// Close flushes a final snapshot and closes the journal. Every later
// journaled mutation fails with ErrStoreClosed; reads keep working
// against the in-memory state. A no-op for in-memory stores.
func (s *Store) Close() error {
	if s.jnl == nil {
		return nil
	}
	s.opMu.Lock()
	if s.closed {
		s.opMu.Unlock()
		return nil
	}
	s.closed = true
	s.opMu.Unlock()
	snapErr := s.snapshot(true)
	closeErr := s.jnl.Close()
	if snapErr != nil {
		return snapErr
	}
	return closeErr
}

// Dir returns the data directory of a durable store, or "" for an
// in-memory one.
func (s *Store) Dir() string { return s.dir }
