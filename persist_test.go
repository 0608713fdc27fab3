package dphist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dphist/dphist/internal/journal"
)

// mintInto issues one universal release of eps through the namespace's
// own accountant and stores it under name.
func mintInto(t *testing.T, ns *Namespace, name string, counts []float64, eps float64, seed uint64) Release {
	t.Helper()
	session, err := ns.Session(MustNew(WithSeed(seed)))
	if err != nil {
		t.Fatal(err)
	}
	rel, _, err := ns.Mint(session, name, Request{Counts: counts, Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// The acceptance test of the durable ledger: kill the process (no Close,
// no snapshot — the WAL alone carries the state), reopen the directory,
// and require every minted release to answer identically and every
// namespace to report exactly its pre-crash spend.
func TestStoreKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	counts := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	specs := []RangeSpec{{Lo: 0, Hi: 8}, {Lo: 2, Hi: 5}, {Lo: 7, Hi: 8}, {Lo: 3, Hi: 3}}

	s1, err := OpenStore(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	type minted struct {
		ns, name string
		answers  []float64
		version  int
	}
	var want []minted
	spent := map[string]float64{}
	for _, tc := range []struct {
		ns, name string
		eps      float64
	}{
		{"default", "traffic", 0.5},
		{"default", "traffic", 0.25}, // re-mint: version 2
		{"tenant-a", "grades", 1.0},
		{"tenant-b", "degrees", 0.125},
	} {
		ns := s1.Namespace(tc.ns)
		mintInto(t, ns, tc.name, counts, tc.eps, uint64(len(want)+1))
		answers, entry, err := ns.Query(tc.name, specs)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, minted{tc.ns, tc.name, answers, entry.Version})
		spent[tc.ns] += tc.eps
	}
	// Deleted entries must stay deleted after recovery.
	if _, err := s1.Namespace("tenant-a").Put("doomed", want0Release(t)); err != nil {
		t.Fatal(err)
	}
	if !s1.Namespace("tenant-a").Delete("doomed") {
		t.Fatal("delete failed")
	}
	// Crash: the store is abandoned without Close or Snapshot.

	s2, err := OpenStore(dir, WithBudget(2.0))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for _, m := range want[1:] { // want[0] was replaced by the re-mint
		ns := s2.Namespace(m.ns)
		answers, entry, err := ns.Query(m.name, specs)
		if err != nil {
			t.Fatalf("%s/%s after restart: %v", m.ns, m.name, err)
		}
		if entry.Version != m.version {
			t.Fatalf("%s/%s version = %d, want %d", m.ns, m.name, entry.Version, m.version)
		}
		for i := range answers {
			if answers[i] != m.answers[i] {
				t.Fatalf("%s/%s answers changed across restart: %v != %v", m.ns, m.name, answers, m.answers)
			}
		}
	}
	if _, _, ok := s2.Namespace("tenant-a").Get("doomed"); ok {
		t.Fatal("deleted release resurrected by recovery")
	}
	for ns, eps := range spent {
		got := s2.Namespace(ns).Accountant().Spent()
		if math.Abs(got-eps) > 1e-12 {
			t.Fatalf("namespace %s Spent() = %v after restart, want %v", ns, got, eps)
		}
	}
	// The recovered ledger keeps enforcing: tenant-a spent 1.0 of 2.0,
	// so 1.5 more must be refused — the restart is not a budget reset.
	if err := s2.Namespace("tenant-a").Accountant().Spend("again", 1.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("post-restart overdraw error = %v", err)
	}
	// Version counters continue across the restart even for the deleted
	// name: a re-mint is always distinguishable from a re-read.
	entry, err := s2.Namespace("tenant-a").Put("doomed", want0Release(t))
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 2 {
		t.Fatalf("post-restart version for deleted name = %d, want 2", entry.Version)
	}
}

func want0Release(t *testing.T) Release {
	t.Helper()
	rel, err := MustNew(WithSeed(77)).UniversalHistogram([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// Clean shutdown folds everything into the snapshot; recovery must work
// from the snapshot alone (the WAL is empty after Close).
func TestStoreCloseSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, WithBudget(3.0))
	if err != nil {
		t.Fatal(err)
	}
	mintInto(t, s1.Namespace("a"), "x", []float64{5, 5, 5, 5}, 0.5, 1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent, and journaled mutations now refuse.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Namespace("a").Put("y", want0Release(t)); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if err := s1.Namespace("a").Accountant().Spend("late", 0.1); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("spend after close: %v", err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 0 {
		t.Fatalf("WAL holds %d bytes after Close; snapshot should have absorbed it", len(wal))
	}

	s2, err := OpenStore(dir, WithBudget(3.0))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, ok := s2.Namespace("a").Get("x"); !ok {
		t.Fatal("release lost across clean shutdown")
	}
	if got := s2.Namespace("a").Accountant().Spent(); got != 0.5 {
		t.Fatalf("Spent() = %v across clean shutdown", got)
	}
	// Sequence numbering continued past the snapshot: new mutations after
	// reopen recover correctly too.
	mintInto(t, s2.Namespace("a"), "z", []float64{1, 1, 1, 1}, 0.25, 2)
	s2.Close()
	s3, err := OpenStore(dir, WithBudget(3.0))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Namespace("a").Accountant().Spent(); got != 0.75 {
		t.Fatalf("Spent() = %v after second generation", got)
	}
}

// The store-level damage matrix: recovery restores a consistent prefix
// for torn tails and fails loudly for real corruption — it must never
// silently under-report spent budget.
func TestStoreRecoveryDamage(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s, err := OpenStore(dir, WithBudget(5.0))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			mintInto(t, s.Namespace("t"), fmt.Sprintf("r%d", i), []float64{2, 2, 2, 2}, 0.5, uint64(i+1))
		}
		// Abandon without Close: all state lives in the WAL.
		return dir
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, dir string)
		check   func(t *testing.T, s *Store)
		corrupt bool
	}{
		{
			name:   "truncated tail drops only the final record",
			mutate: func(t *testing.T, dir string) { truncateFile(t, filepath.Join(dir, walFile), 7) },
			check: func(t *testing.T, s *Store) {
				// Mint i journals a charge then a put; chopping 7 bytes
				// tears the final put, so r3's put is lost while earlier
				// releases and charges survive.
				if _, _, ok := s.Namespace("t").Get("r2"); !ok {
					t.Fatal("r2 lost")
				}
				if _, _, ok := s.Namespace("t").Get("r3"); ok {
					t.Fatal("torn r3 resurrected")
				}
			},
		},
		{
			name: "mid-file bit flip fails loudly",
			mutate: func(t *testing.T, dir string) {
				flipByte(t, filepath.Join(dir, walFile), 40)
			},
			corrupt: true,
		},
		{
			name: "missing snapshot replays the full WAL",
			mutate: func(t *testing.T, dir string) {
				// No snapshot was ever written; also assert that explicitly.
				if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
					t.Fatalf("unexpected snapshot: %v", err)
				}
			},
			check: func(t *testing.T, s *Store) {
				if got := s.Namespace("t").Accountant().Spent(); got != 2.0 {
					t.Fatalf("Spent() = %v, want 2.0", got)
				}
				if n := s.Namespace("t").Len(); n != 4 {
					t.Fatalf("Len = %d, want 4", n)
				}
			},
		},
		{
			name: "partial snapshot fails loudly",
			mutate: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte(`{"seq":3,"entr`), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			corrupt: true,
		},
		{
			name: "unparseable release payload fails loudly",
			mutate: func(t *testing.T, dir string) {
				// Rewrite the WAL with a put whose payload passes framing
				// but is not a decodable release.
				writeBadPutWAL(t, filepath.Join(dir, walFile))
			},
			corrupt: true,
		},
		{
			name:   "empty data dir opens empty",
			mutate: func(t *testing.T, dir string) { cleanDir(t, dir) },
			check: func(t *testing.T, s *Store) {
				if n := s.Namespace("t").Len(); n != 0 {
					t.Fatalf("Len = %d in fresh dir", n)
				}
				if got := s.Namespace("t").Accountant().Spent(); got != 0 {
					t.Fatalf("Spent() = %v in fresh dir", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.mutate(t, dir)
			s, err := OpenStore(dir, WithBudget(5.0))
			if tc.corrupt {
				if err == nil {
					s.Close()
					t.Fatal("corrupt store opened silently")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tc.check(t, s)
		})
	}
}

func truncateFile(t *testing.T, path string, bytesOff int) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-int64(bytesOff)); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func cleanDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
}

// writeBadPutWAL replaces the WAL with a single put record that passes
// framing (valid checksums, valid JSON record) but whose release
// payload is not a decodable release.
func writeBadPutWAL(t *testing.T, path string) {
	t.Helper()
	frame, err := journal.Marshal(journal.Record{
		Seq: 1, Op: journal.OpPut, Namespace: "t", Name: "bad", Version: 1,
		StoredAt: time.Unix(1, 0), Payload: json.RawMessage(`{"version":99,"strategy":"universal"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Automatic snapshots: once enough records accumulate the WAL is folded
// away, and recovery from the snapshot matches recovery from the log.
func TestStoreAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, WithBudget(100), WithSnapshotEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mintInto(t, s.Namespace("n"), fmt.Sprintf("r%d", i), []float64{1, 2, 3, 4}, 0.5, uint64(i+1))
	}
	// 8 mints = 16 records with threshold 5: at least one snapshot fired.
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("no snapshot after threshold: %v", err)
	}
	// Crash without Close; snapshot + WAL suffix must reconstruct all 8.
	s2, err := OpenStore(dir, WithBudget(100))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.Namespace("n").Len(); n != 8 {
		t.Fatalf("recovered %d releases, want 8", n)
	}
	if got := s2.Namespace("n").Accountant().Spent(); got != 4.0 {
		t.Fatalf("Spent() = %v, want 4.0", got)
	}
}

// Namespaces are isolated: keyspaces do not collide and budgets are
// accounted independently.
func TestNamespaceIsolation(t *testing.T) {
	s := NewStore(WithBudget(1.0))
	relA := want0Release(t)
	if _, err := s.Namespace("a").Put("x", relA); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Namespace("b").Get("x"); ok {
		t.Fatal("namespace b sees a's release")
	}
	if _, _, ok := s.Namespace("a").Get("x"); !ok {
		t.Fatal("namespace a lost its release")
	}
	// The default namespace is its own keyspace, aliased by "".
	if _, _, ok := s.Get("x"); ok {
		t.Fatal("default namespace sees a's release")
	}
	if s.Namespace("").Name() != DefaultNamespace {
		t.Fatal(`Namespace("") is not the default`)
	}
	// Budgets are independent: exhausting a leaves b untouched.
	if err := s.Namespace("a").Accountant().Spend("all", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Namespace("a").Accountant().Spend("more", 0.5); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overdraw in a: %v", err)
	}
	if err := s.Namespace("b").Accountant().Spend("fresh", 0.5); err != nil {
		t.Fatalf("b's budget tainted by a: %v", err)
	}
	if got := s.Namespace("b").Remaining(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("b remaining = %v", got)
	}
	// Same name in two namespaces: versions count independently.
	if _, err := s.Namespace("b").Put("x", relA); err != nil {
		t.Fatal(err)
	}
	entryA, err := s.Namespace("a").Put("x", relA)
	if err != nil {
		t.Fatal(err)
	}
	entryB, err := s.Namespace("b").Put("x", relA)
	if err != nil {
		t.Fatal(err)
	}
	if entryA.Version != 2 || entryB.Version != 2 {
		t.Fatalf("versions = %d/%d, want 2/2", entryA.Version, entryB.Version)
	}
	if got := s.Namespaces(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Namespaces() = %v", got)
	}
}

// The sharded store preserves the Store contract under every shard
// count, including cross-shard List/Len.
func TestStoreSharding(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewStore(WithShards(shards))
			rel := want0Release(t)
			const n = 64
			for i := 0; i < n; i++ {
				if _, err := s.Put(fmt.Sprintf("name-%d", i), rel); err != nil {
					t.Fatal(err)
				}
			}
			if s.Len() != n {
				t.Fatalf("Len = %d", s.Len())
			}
			list := s.List()
			if len(list) != n {
				t.Fatalf("List len = %d", len(list))
			}
			for i := 1; i < len(list); i++ {
				if list[i-1].Name >= list[i].Name {
					t.Fatal("List not sorted across shards")
				}
			}
			for i := 0; i < n; i++ {
				if _, _, ok := s.Get(fmt.Sprintf("name-%d", i)); !ok {
					t.Fatalf("name-%d missing", i)
				}
			}
			if !s.Delete("name-7") || s.Len() != n-1 {
				t.Fatal("delete across shards broken")
			}
		})
	}
}

// Durable stores stay correct under concurrent multi-namespace traffic;
// run under -race. Spends and puts race against snapshots triggered by
// a tiny threshold.
func TestStoreDurableConcurrency(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, WithBudget(1000), WithSnapshotEvery(16), WithoutSync(), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	rel := want0Release(t)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ns := s.Namespace(fmt.Sprintf("tenant-%d", g%3))
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("rel-%d", i%7)
				switch i % 4 {
				case 0:
					if _, err := ns.Put(name, rel); err != nil {
						t.Error(err)
						return
					}
				case 1:
					ns.Get(name)
				case 2:
					if err := ns.Accountant().Spend("load", 0.01); err != nil {
						t.Error(err)
						return
					}
				case 3:
					ns.Delete(name)
				}
			}
		}(g)
	}
	wg.Wait()
	wantSpent := map[string]float64{}
	for g := 0; g < 6; g++ {
		wantSpent[fmt.Sprintf("tenant-%d", g%3)] += 10 * 0.01
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, WithBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for ns, want := range wantSpent {
		if got := s2.Namespace(ns).Accountant().Spent(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s Spent() = %v, want %v", ns, got, want)
		}
	}
}

// The streamed snapshot document is exactly what json.Marshal writes for
// the storeSnapshot it decodes to, through both sinks — the file
// Snapshot writes and the bytes ReplicationSnapshot serves — and that
// struct holds the store's state: every live release's wire bytes,
// every version counter (deleted names included) and every namespace's
// spent budget.
func TestSnapshotDocumentMatchesReflection(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, WithoutSync(), WithSnapshotEvery(0), WithBudget(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkDoc := func() storeSnapshot {
		t.Helper()
		repl, replSeq, err := s.ReplicationSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if replSeq != s.JournalSeq() {
			t.Fatalf("replication snapshot covers seq %d, journal at %d", replSeq, s.JournalSeq())
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		var snap storeSnapshot
		for _, sink := range []struct {
			name string
			data []byte
		}{{"snapshot file", file}, {"replication snapshot", repl}} {
			snap = storeSnapshot{}
			if err := json.Unmarshal(sink.data, &snap); err != nil {
				t.Fatalf("%s does not decode: %v\n%s", sink.name, err, sink.data)
			}
			want, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if string(sink.data) != string(want) {
				t.Fatalf("%s diverges from json.Marshal:\n got %s\nwant %s", sink.name, sink.data, want)
			}
			if snap.Seq != s.JournalSeq() {
				t.Fatalf("%s seq %d, journal at %d", sink.name, snap.Seq, s.JournalSeq())
			}
		}
		return snap
	}
	if snap := checkDoc(); snap.Entries != nil || snap.Versions != nil || snap.Charges != nil {
		t.Fatalf("empty store snapshot = %+v", snap)
	}

	m := MustNew(WithSeed(8))
	counts := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for i, ns := range []string{"default", "a<&>b", "t "} {
		sess, err := s.Namespace(ns).Session(m)
		if err != nil {
			t.Fatal(err)
		}
		for j, req := range []Request{
			{Strategy: StrategyUniversal, Counts: counts, Epsilon: 0.25},
			{Strategy: StrategyAuto, Counts: counts, Epsilon: 0.5, Workload: &WorkloadSketch{Preset: "prefixes"}},
			{Strategy: StrategyLaplace, Counts: counts, Epsilon: 1.0 / 3},
		} {
			if _, _, err := s.Namespace(ns).Mint(sess, fmt.Sprintf("r%d\"%d", i, j), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !s.Namespace("a<&>b").Delete("r1\"0") {
		t.Fatal("delete found nothing")
	}
	snap := checkDoc()
	if len(snap.Entries) != 8 || len(snap.Versions) != 9 || len(snap.Charges) != 3 {
		t.Fatalf("snapshot holds %d entries, %d versions, %d charges; want 8, 9, 3",
			len(snap.Entries), len(snap.Versions), len(snap.Charges))
	}
	for _, e := range snap.Entries {
		rel, entry, ok := s.Namespace(e.Namespace).Get(e.Name)
		if !ok {
			t.Fatalf("snapshot entry %s/%s is not live", e.Namespace, e.Name)
		}
		raw, err := json.Marshal(rel)
		if err != nil {
			t.Fatal(err)
		}
		if string(e.Release) != string(raw) || e.Version != entry.Version || !e.StoredAt.Equal(entry.StoredAt) {
			t.Fatalf("snapshot entry %s/%s does not match the store", e.Namespace, e.Name)
		}
	}
	for _, c := range snap.Charges {
		if want := s.Namespace(c.Namespace).Accountant().Spent(); c.Epsilon != want {
			t.Fatalf("snapshot charge for %s = %v, spent %v", c.Namespace, c.Epsilon, want)
		}
	}
}

// A snapshot streams to its file one release at a time, so what it
// allocates is bounded by one encoded release and the write buffer, not
// by the document: 400 universal releases at domain 256 make about
// 8.3 MB of snapshot.
func TestSnapshotAllocationBounded(t *testing.T) {
	dir := t.TempDir()
	s := snapshotStore(t, dir, 400)
	defer s.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	info, err := os.Stat(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < 8e6 {
		t.Fatalf("snapshot document is %d bytes, want at least 8 MB", info.Size())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("snapshot of a %d-byte document allocated %d bytes, want under 1 MiB", info.Size(), got)
	}
}
