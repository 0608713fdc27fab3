package dphist

// The applier layer: one pipeline that folds journal records and
// snapshots into store state, shared by its three consumers —
//
//   - boot recovery (openStore replays snapshot + WAL),
//   - snapshot bootstrap (Bootstrap replaces a replica's whole state
//     from a primary snapshot), and
//   - live follower replay (Apply folds shipped records one at a time).
//
// A replica store is read-only: local Put/Delete/Mint fail with
// ErrReadOnly and its accountants refuse to admit charges, so the only
// way state changes is through this pipeline. Replication ships
// already-noised releases in their wire form — the same payloads the
// WAL holds — so it is privacy-neutral: no budget is charged on the
// replica, and the replica's accountants mirror the primary's ledger
// via shipped charge records.
//
// Durable replicas re-journal each shipped record under its primary
// sequence number (journal.AppendRecord), which makes the replica's
// recovery point a primary sequence: after a crash, openStore replays
// the local WAL and the tailer resumes the stream at applied+1 with no
// double-apply window. Charges restore in primary order on top of the
// snapshot's aggregated total, so Accountant.Spent() is bit-identical
// to the primary's at every shared sequence.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/dphist/dphist/internal/journal"
)

// ErrReadOnly reports a local mutation attempted on a replica store.
// Replicas change state only through Apply and Bootstrap.
var ErrReadOnly = errors.New("dphist: store is a read-only replica")

// ErrNotReplicable reports a replication read against a store with no
// journal — an in-memory store has no log to ship.
var ErrNotReplicable = errors.New("dphist: in-memory store has no replication log")

// readOnlyLedger is the chargeLedger wired into a replica's
// accountants: it vetoes every locally admitted charge. Shipped charges
// arrive through Accountant.restore, which bypasses the ledger.
type readOnlyLedger struct{}

func (readOnlyLedger) begin()              {}
func (readOnlyLedger) end()                {}
func (readOnlyLedger) record(Charge) error { return ErrReadOnly }

// NewReplica returns an empty in-memory replica store: read-only, fed
// exclusively through Bootstrap and Apply. State dies with the process;
// see OpenReplica for the durable variant.
func NewReplica(opts ...StoreOption) *Store {
	s := NewStore(opts...)
	s.readOnly = true
	return s
}

// OpenReplica opens (creating if needed) a durable replica store rooted
// at dir. Recovery follows OpenStore exactly — snapshot, WAL replay,
// torn-tail truncation — but the recovered store is read-only and its
// WAL carries primary sequence numbers, so AppliedSeq() after recovery
// is the primary sequence to resume streaming from.
func OpenReplica(dir string, opts ...StoreOption) (*Store, error) {
	return openStore(dir, true, opts...)
}

// ReadOnly reports whether the store is a replica.
func (s *Store) ReadOnly() bool { return s.readOnly }

// AppliedSeq returns the highest primary journal sequence folded into
// this store — on a replica, the replication high-water mark.
func (s *Store) AppliedSeq() uint64 { return s.applied.Load() }

// JournalSeq returns the last sequence assigned by the store's journal,
// or 0 for an in-memory store. On a primary this is the replication
// frontier followers converge toward.
func (s *Store) JournalSeq() uint64 {
	if s.jnl == nil {
		return 0
	}
	return s.jnl.NextSeq() - 1
}

// SnapshotSeq returns the journal sequence covered by the newest
// on-disk snapshot — the compaction horizon below which ReplicationRead
// reports ErrCompacted — or 0 when no snapshot has been written.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// Apply folds one shipped journal record into a replica store. Records
// must arrive in primary order: a record at or below the applied
// horizon is a harmless reconnect overlap and is dropped silently; a
// record that skips past applied+1 fails with an error wrapping
// journal.ErrCorrupt, because a gap means the stream lost data and the
// replica can no longer claim to mirror the primary. On a durable
// replica the record is re-journaled (and fsynced) under its primary
// sequence before it is applied, so durability-before-visibility holds
// on the replica exactly as on the primary.
func (s *Store) Apply(rec journal.Record) error {
	if !s.readOnly {
		return errors.New("dphist: Apply on a writable store (use NewReplica or OpenReplica)")
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	applied := s.applied.Load()
	if rec.Seq <= applied {
		return nil
	}
	if rec.Seq != applied+1 {
		return fmt.Errorf("%w: shipped record %d leaves a gap after %d", journal.ErrCorrupt, rec.Seq, applied)
	}
	if s.jnl == nil {
		if err := s.applyRecord(rec); err != nil {
			return err
		}
		s.applied.Store(rec.Seq)
		return nil
	}
	s.opMu.RLock()
	if s.closed {
		s.opMu.RUnlock()
		return ErrStoreClosed
	}
	err := s.jnl.AppendRecord(rec)
	if err == nil {
		s.appended.Add(1)
		err = s.applyRecord(rec)
	}
	if err == nil {
		s.applied.Store(rec.Seq)
	}
	s.opMu.RUnlock()
	if err == nil {
		// Outside every lock: Snapshot takes the op write lock itself.
		s.maybeSnapshot()
	}
	return err
}

// Bootstrap replaces the replica's entire state with a primary
// snapshot, as served by ReplicationSnapshot. It is the first-sync path
// for an empty replica and the resync path after the primary compacted
// the stream past the replica's position (ErrCompacted). A snapshot
// older than what the replica already applied is refused — replication
// never moves backwards. Existing accountants are reset in place, so
// pointers handed out before the bootstrap keep observing the ledger.
func (s *Store) Bootstrap(data []byte) error {
	if !s.readOnly {
		return errors.New("dphist: Bootstrap on a writable store (use NewReplica or OpenReplica)")
	}
	var snap storeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%w: bootstrap snapshot: %v", journal.ErrCorrupt, err)
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if snap.Seq < s.applied.Load() {
		return fmt.Errorf("dphist: bootstrap snapshot at seq %d is behind applied seq %d", snap.Seq, s.applied.Load())
	}
	if s.jnl != nil {
		s.snapMu.Lock()
		defer s.snapMu.Unlock()
		s.opMu.Lock()
		defer s.opMu.Unlock()
		if s.closed {
			return ErrStoreClosed
		}
		// Durability order: the snapshot file lands before the WAL is
		// rebased past it. A crash between the two replays the fresh
		// snapshot and skips any leftover WAL records at or below its
		// seq, so every window recovers consistently. The shipped bytes
		// are written as given: Unmarshal above has validated them.
		err := journal.WriteSnapshot(filepath.Join(s.dir, snapshotFile), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			return err
		}
		if err := s.jnl.Rebase(snap.Seq); err != nil {
			return err
		}
		s.appended.Store(0)
		s.snapSeq.Store(snap.Seq)
	}
	s.clearStateForBootstrap()
	if err := s.applySnapshot(&snap); err != nil {
		return err
	}
	s.applied.Store(snap.Seq)
	return nil
}

// clearStateForBootstrap empties every shard and zeroes every
// accountant in place, keeping accountant pointer identity for callers
// that cached one.
func (s *Store) clearStateForBootstrap() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		clear(sh.items)
		clear(sh.versions)
		sh.mu.Unlock()
	}
	s.acctMu.Lock()
	for _, a := range s.accts {
		a.resetCharges()
	}
	s.acctMu.Unlock()
}

// ReplicationSnapshot serializes the store's complete current state for
// a bootstrapping replica, returning the snapshot bytes and the journal
// sequence they cover. Unlike Snapshot it does not reset the WAL, so a
// replica can stream from seq+1 immediately after loading it.
func (s *Store) ReplicationSnapshot() ([]byte, uint64, error) {
	if s.jnl == nil {
		return nil, 0, ErrNotReplicable
	}
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.closed {
		return nil, 0, ErrStoreClosed
	}
	// Buffered whole, not streamed to the caller: a slow reader must not
	// hold opMu, which every mint and charge waits on.
	var buf bytes.Buffer
	seq, err := s.writeSnapshotLocked(&buf)
	if err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), seq, nil
}

// ReplicationRead returns every journal record with sequence >= from.
// An empty slice means the caller is caught up and should wait on
// ReplicationSignal. It fails with journal.ErrCompacted when from is at
// or below the compaction horizon — the caller must bootstrap from
// ReplicationSnapshot instead.
func (s *Store) ReplicationRead(from uint64) ([]journal.Record, error) {
	if s.jnl == nil {
		return nil, ErrNotReplicable
	}
	return s.jnl.ReadFrom(from)
}

// closedSignal is the permanently-ready channel ReplicationSignal hands
// out when there is no journal to wait on.
var closedSignal = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// ReplicationSignal returns a channel closed on the journal's next
// append (or on Close), for long-polling readers: take the channel
// *before* ReplicationRead, read, and wait on it only if the read came
// back empty — that order cannot miss an append.
func (s *Store) ReplicationSignal() <-chan struct{} {
	if s.jnl == nil {
		return closedSignal
	}
	return s.jnl.Updated()
}

// applySnapshot loads complete store state.
func (s *Store) applySnapshot(snap *storeSnapshot) error {
	for _, v := range snap.Versions {
		k := nsKey{v.Namespace, v.Name}
		sh := s.shard(k)
		if v.Version > sh.versions[k] {
			sh.versions[k] = v.Version
		}
	}
	for _, e := range snap.Entries {
		if err := s.recoverPut(e.Namespace, e.Name, e.Version, e.StoredAt, e.Release); err != nil {
			return err
		}
	}
	for _, c := range snap.Charges {
		s.accountant(c.Namespace).restore(Charge{Label: c.Label, Epsilon: c.Epsilon})
	}
	return nil
}

// applyRecord folds one journal record into the store — the single
// code path behind recovery replay and live follower replay.
func (s *Store) applyRecord(rec journal.Record) error {
	switch rec.Op {
	case journal.OpPut:
		return s.recoverPut(rec.Namespace, rec.Name, rec.Version, rec.StoredAt, rec.Payload)
	case journal.OpDelete:
		k := nsKey{rec.Namespace, rec.Name}
		sh := s.shard(k)
		sh.mu.Lock()
		delete(sh.items, k)
		sh.mu.Unlock()
		return nil
	case journal.OpCharge:
		s.accountant(rec.Namespace).restore(Charge{Label: rec.Label, Epsilon: rec.Epsilon})
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", journal.ErrCorrupt, rec.Op)
	}
}

// recoverPut re-inserts one release from its journaled wire form,
// re-deriving the entry metadata from the decoded release exactly as
// the original Put did.
func (s *Store) recoverPut(ns, name string, version int, storedAt time.Time, payload json.RawMessage) error {
	rel, err := DecodeRelease(payload)
	if err != nil {
		return fmt.Errorf("release %s/%s v%d: %w", ns, name, version, err)
	}
	k := nsKey{ns, name}
	entry := StoreEntry{
		Namespace: ns,
		Name:      name,
		Version:   version,
		Strategy:  rel.Strategy(),
		Epsilon:   rel.Epsilon(),
		Domain:    releaseDomain(rel),
		StoredAt:  storedAt,
	}
	sh := s.shard(k)
	sh.mu.Lock()
	if version > sh.versions[k] {
		sh.versions[k] = version
	}
	// DecodeRelease recompiled the query plan from the wire vectors, so
	// a recovered release serves batches exactly like the original did.
	sh.items[k] = &storeItem{release: rel, plan: releasePlan(rel), entry: entry}
	sh.mu.Unlock()
	return nil
}
