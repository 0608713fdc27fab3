package dphist

// Tests for the replica apply pipeline: read-only enforcement, shipped-
// record replay parity with the primary, snapshot bootstrap and
// post-compaction resync, and durable resume without double-apply.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/dphist/dphist/internal/journal"
)

func TestReplicaRefusesLocalMutation(t *testing.T) {
	r := NewReplica(WithBudget(2.0))
	if !r.ReadOnly() {
		t.Fatal("NewReplica store is not read-only")
	}
	if _, err := r.Put("x", want0Release(t)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Put on replica: %v, want ErrReadOnly", err)
	}
	if r.Delete("x") {
		t.Fatal("Delete on replica reported success")
	}
	ns := r.Namespace("tenant")
	session, err := ns.Session(MustNew(WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.Mint(session, "x", Request{Counts: []float64{1, 2}, Epsilon: 0.5}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Mint on replica: %v, want ErrReadOnly", err)
	}
	// The refused mint must not have charged anything.
	if spent := ns.Accountant().Spent(); spent != 0 {
		t.Fatalf("refused mint charged %v", spent)
	}
	// Direct spends are vetoed by the read-only ledger.
	if err := ns.Accountant().Spend("local", 0.5); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Spend on replica accountant: %v, want ErrReadOnly", err)
	}
}

func TestApplyRequiresReplica(t *testing.T) {
	s := NewStore()
	if err := s.Apply(journal.Record{Seq: 1, Op: journal.OpCharge, Epsilon: 1}); err == nil {
		t.Fatal("Apply accepted on a writable store")
	}
	if err := s.Bootstrap([]byte(`{"seq":1}`)); err == nil {
		t.Fatal("Bootstrap accepted on a writable store")
	}
}

// primaryWithState opens a durable primary and mints a small multi-
// namespace workload, returning the store and the range specs used for
// parity checks.
func primaryWithState(t *testing.T, dir string) (*Store, []RangeSpec) {
	t.Helper()
	p, err := OpenStore(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	counts := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	mintInto(t, p.Namespace("default"), "traffic", counts, 0.5, 1)
	mintInto(t, p.Namespace("default"), "traffic", counts, 0.25, 2) // version 2
	mintInto(t, p.Namespace("tenant-a"), "grades", counts, 1.0, 3)
	if _, err := p.Namespace("tenant-a").Put("doomed", want0Release(t)); err != nil {
		t.Fatal(err)
	}
	if !p.Namespace("tenant-a").Delete("doomed") {
		t.Fatal("delete failed")
	}
	return p, []RangeSpec{{Lo: 0, Hi: 8}, {Lo: 2, Hi: 5}, {Lo: 7, Hi: 8}, {Lo: 3, Hi: 3}}
}

// requireParity asserts the replica answers every live release bit-
// identically to the primary and reports bit-identical Spent totals.
func requireParity(t *testing.T, p, r *Store, specs []RangeSpec) {
	t.Helper()
	for _, ns := range p.Namespaces() {
		for _, entry := range p.Namespace(ns).List() {
			want, wentry, err := p.Namespace(ns).Query(entry.Name, specs)
			if err != nil {
				t.Fatal(err)
			}
			got, gentry, err := r.Namespace(ns).Query(entry.Name, specs)
			if err != nil {
				t.Fatalf("replica %s/%s: %v", ns, entry.Name, err)
			}
			if gentry.Version != wentry.Version {
				t.Fatalf("%s/%s version = %d, want %d", ns, entry.Name, gentry.Version, wentry.Version)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s/%s answers diverge: %v != %v", ns, entry.Name, got, want)
				}
			}
		}
		ps, rs := p.Namespace(ns).Accountant().Spent(), r.Namespace(ns).Accountant().Spent()
		if math.Float64bits(ps) != math.Float64bits(rs) {
			t.Fatalf("namespace %s Spent diverges: %v != %v", ns, rs, ps)
		}
	}
}

func TestReplicaApplyParity(t *testing.T) {
	p, specs := primaryWithState(t, t.TempDir())
	defer p.Close()
	recs, err := p.ReplicationRead(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records to ship")
	}
	r := NewReplica(WithBudget(2.0))
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			t.Fatalf("apply seq %d: %v", rec.Seq, err)
		}
	}
	if r.AppliedSeq() != p.JournalSeq() {
		t.Fatalf("applied %d, primary at %d", r.AppliedSeq(), p.JournalSeq())
	}
	requireParity(t, p, r, specs)
	// The deleted name stays deleted on the replica too.
	if _, _, ok := r.Namespace("tenant-a").Get("doomed"); ok {
		t.Fatal("deleted release alive on replica")
	}
	// Reconnect overlap: re-applying an old record is a silent no-op.
	spent := r.Namespace("tenant-a").Accountant().Spent()
	if err := r.Apply(recs[len(recs)-1]); err != nil {
		t.Fatal(err)
	}
	if got := r.Namespace("tenant-a").Accountant().Spent(); got != spent {
		t.Fatalf("overlap re-apply changed Spent: %v != %v", got, spent)
	}
	// A gap is stream corruption and must fail loudly.
	gap := journal.Record{Seq: r.AppliedSeq() + 2, Op: journal.OpCharge, Namespace: "default", Epsilon: 0.01}
	if err := r.Apply(gap); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("gap apply error = %v, want ErrCorrupt", err)
	}
}

func TestReplicaBootstrapAndResync(t *testing.T) {
	p, specs := primaryWithState(t, t.TempDir())
	defer p.Close()
	// Compact: the early records now live only in the snapshot, so a
	// fresh replica cannot stream from 1.
	if err := p.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReplicationRead(1); !errors.Is(err, journal.ErrCompacted) {
		t.Fatalf("read below horizon: %v, want ErrCompacted", err)
	}
	snap, seq, err := p.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != p.JournalSeq() || seq != p.SnapshotSeq() {
		t.Fatalf("snapshot seq %d, journal %d, on-disk %d", seq, p.JournalSeq(), p.SnapshotSeq())
	}
	r := NewReplica(WithBudget(2.0))
	// Hand out an accountant before the bootstrap: the pointer must keep
	// observing the ledger afterwards.
	acct := r.Namespace("tenant-a").Accountant()
	if err := r.Bootstrap(snap); err != nil {
		t.Fatal(err)
	}
	if r.AppliedSeq() != seq {
		t.Fatalf("applied %d after bootstrap, want %d", r.AppliedSeq(), seq)
	}
	requireParity(t, p, r, specs)
	if acct != r.Namespace("tenant-a").Accountant() {
		t.Fatal("bootstrap replaced the accountant object")
	}
	// Live tail after the bootstrap: new primary writes stream over.
	mintInto(t, p.Namespace("tenant-b"), "degrees", []float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.125, 9)
	recs, err := p.ReplicationRead(r.AppliedSeq() + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := r.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	requireParity(t, p, r, specs)
	// Replication never moves backwards: a stale snapshot is refused.
	if err := r.Bootstrap(snap); err != nil && r.AppliedSeq() == seq {
		t.Fatalf("equal-seq bootstrap should be accepted idempotently: %v", err)
	}
	old := r.AppliedSeq()
	stale, _, err := p.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	_ = stale
	if err := r.Apply(journal.Record{Seq: old + 1, Op: journal.OpCharge, Namespace: "default", Epsilon: 0.0625}); err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(snap); err == nil {
		t.Fatal("bootstrap behind applied seq accepted")
	}
	// Garbage bytes are corruption, loudly.
	if err := r.Bootstrap([]byte("{broken")); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("garbage bootstrap error = %v, want ErrCorrupt", err)
	}
}

// A durable replica writes a bootstrap snapshot to disk exactly as the
// primary served it, and recovers from that file.
func TestReplicaDurableBootstrapWritesShippedSnapshot(t *testing.T) {
	p, specs := primaryWithState(t, t.TempDir())
	defer p.Close()
	snap, seq, err := p.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := OpenReplica(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Bootstrap(snap); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(snap) {
		t.Fatalf("replica snapshot file differs from the shipped snapshot:\n got %s\nwant %s", got, snap)
	}
	// Crash: the replica is abandoned without Close, so recovery reads
	// the shipped file.
	r2, err := OpenReplica(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.AppliedSeq() != seq {
		t.Fatalf("reopened replica applied %d, want %d", r2.AppliedSeq(), seq)
	}
	requireParity(t, p, r2, specs)
}

// A durable replica's WAL carries primary sequence numbers, so killing
// and reopening it resumes the stream exactly where it stopped — and
// re-shipping the whole log afterwards must not double-apply anything.
func TestReplicaDurableResumeNoDoubleApply(t *testing.T) {
	p, specs := primaryWithState(t, t.TempDir())
	defer p.Close()
	recs, err := p.ReplicationRead(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r1, err := OpenReplica(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	for _, rec := range recs[:half] {
		if err := r1.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Crash-like stop mid-stream (Close flushes; the WAL alone would
	// also do — persist_test covers that path for the shared journal).
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenReplica(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.ReadOnly() {
		t.Fatal("reopened replica is writable")
	}
	if r2.AppliedSeq() != recs[half-1].Seq {
		t.Fatalf("reopened applied seq = %d, want %d", r2.AppliedSeq(), recs[half-1].Seq)
	}
	// Ship the entire log again, as a reconnecting tailer might after an
	// overlap: already-applied records drop, the rest apply once.
	for _, rec := range recs {
		if err := r2.Apply(rec); err != nil {
			t.Fatalf("apply seq %d after reopen: %v", rec.Seq, err)
		}
	}
	requireParity(t, p, r2, specs)
}

// An in-memory primary has no log to ship; the replication surface says
// so rather than pretending.
func TestReplicationRequiresJournal(t *testing.T) {
	s := NewStore()
	if _, _, err := s.ReplicationSnapshot(); !errors.Is(err, ErrNotReplicable) {
		t.Fatalf("ReplicationSnapshot: %v, want ErrNotReplicable", err)
	}
	if _, err := s.ReplicationRead(1); !errors.Is(err, ErrNotReplicable) {
		t.Fatalf("ReplicationRead: %v, want ErrNotReplicable", err)
	}
	select {
	case <-s.ReplicationSignal():
	default:
		t.Fatal("ReplicationSignal on in-memory store should be ready")
	}
}
