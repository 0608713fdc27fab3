package dphist

// Regression tests for the shard-lock contract: Store.Query snapshots
// the release and its compiled plan under a brief read lock and answers
// the batch entirely outside it, so a slow batch — even one blocked
// inside an external release's Range — never stalls a concurrent Put
// on the same shard. Run with -race.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gatedRelease wraps a release behind the Release *interface* (so no
// compiled plan is promoted and the batch engine must go through Range)
// and blocks every Range call until the gate opens, signalling entry.
type gatedRelease struct {
	Release
	entered chan struct{} // closed when Range is first reached
	gate    chan struct{} // Range blocks until this closes
	once    sync.Once
}

func (g *gatedRelease) Range(lo, hi int) (float64, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.Release.Range(lo, hi)
}

func TestSlowQueryBatchDoesNotBlockPut(t *testing.T) {
	rel, err := MustNew(WithSeed(41)).LaplaceHistogram([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow := &gatedRelease{
		Release: rel,
		entered: make(chan struct{}),
		gate:    make(chan struct{}),
	}
	// One shard: the slow release and the concurrent Put share it.
	s := NewStore(WithShards(1))
	if _, err := s.Put("slow", slow); err != nil {
		t.Fatal(err)
	}
	queryDone := make(chan error, 1)
	go func() {
		_, _, err := s.Query("slow", []RangeSpec{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 3}})
		queryDone <- err
	}()
	<-slow.entered // the batch is mid-computation, stuck inside Range

	putDone := make(chan error, 1)
	go func() {
		_, err := s.Put("other", rel)
		putDone <- err
	}()
	select {
	case err := <-putDone:
		if err != nil {
			t.Fatalf("Put failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked behind an in-flight query batch on the same shard")
	}
	// Gets must stay live too.
	getDone := make(chan bool, 1)
	go func() {
		_, _, ok := s.Get("other")
		getDone <- ok
	}()
	select {
	case ok := <-getDone:
		if !ok {
			t.Fatal("Get missed the freshly put release")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked behind an in-flight query batch on the same shard")
	}

	close(slow.gate)
	if err := <-queryDone; err != nil {
		t.Fatalf("slow query failed: %v", err)
	}
}

// The snapshot-then-answer read path and the write path race freely
// here; -race plus the answer check make silent sharing visible.
func TestConcurrentQueryAndPutRace(t *testing.T) {
	counts := make([]float64, 256)
	for i := range counts {
		counts[i] = float64(i % 11)
	}
	m := MustNew(WithSeed(43), WithoutNonNegativity(), WithoutRounding())
	rel, err := m.UniversalHistogram(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(WithShards(1))
	if _, err := s.Put("hot", rel); err != nil {
		t.Fatal(err)
	}
	specs := []RangeSpec{{Lo: 0, Hi: 256}, {Lo: 10, Hi: 200}, {Lo: 255, Hi: 256}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The delete/re-put window may legitimately miss.
				if _, _, err := s.Query("hot", specs); err != nil && !errors.Is(err, ErrReleaseNotFound) {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Put("hot", rel); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			s.Delete("hot")
			if _, err := s.Put("hot", rel); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// Namespace probes only read, so they must get through while every
// shard is read-locked — by in-flight query snapshots, say. A probe
// that took the write lock would wait out every reader, and its pending
// Lock would stall each new reader behind it.
func TestNamespaceProbesTakeReadLocks(t *testing.T) {
	s := NewStore(WithShards(4))
	if _, err := s.Namespace("tenant").Put("r", testRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	done := make(chan []string, 1)
	go func() {
		done <- s.Namespaces()
	}()
	var names []string
	select {
	case names = <-done:
	case <-time.After(5 * time.Second):
		t.Error("namespace probe blocked behind shard read locks")
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	if names == nil {
		names = <-done // the blocked probe finishes once the readers leave
	}
	if len(names) != 1 || names[0] != "tenant" {
		t.Errorf("Namespaces = %v, want [tenant]", names)
	}
}

// The per-namespace release count behind /v1/stats, and the Len and
// List probes, only read: they return while every shard is read-locked
// and count the namespace's entries.
func TestNamespaceCountsTakeReadLocks(t *testing.T) {
	s := NewStore(WithShards(4))
	for _, name := range []string{"r1", "r2"} {
		if _, err := s.Namespace("tenant").Put(name, testRelease(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	s.Namespace("budget-only").Accountant()
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	type probe struct {
		counts  []NamespaceCount
		n       int
		entries []StoreEntry
	}
	done := make(chan probe, 1)
	go func() {
		ns := s.Namespace("tenant")
		done <- probe{s.NamespaceCounts(), ns.Len(), ns.List()}
	}()
	var got probe
	var ok bool
	select {
	case got = <-done:
		ok = true
	case <-time.After(5 * time.Second):
		t.Error("namespace count blocked behind shard read locks")
	}
	for _, sh := range s.shards {
		sh.mu.RUnlock()
	}
	if !ok {
		got = <-done // the blocked probe finishes once the readers leave
	}
	want := []NamespaceCount{{Name: "budget-only", Releases: 0}, {Name: "tenant", Releases: 2}}
	if fmt.Sprint(got.counts) != fmt.Sprint(want) {
		t.Errorf("NamespaceCounts = %v, want %v", got.counts, want)
	}
	if got.n != 2 || len(got.entries) != 2 || got.entries[0].Name != "r1" || got.entries[1].Name != "r2" {
		t.Errorf("Len = %d, List = %+v, want the two live entries", got.n, got.entries)
	}
}

// gatedEncodeRelease blocks in MarshalJSON until the gate opens,
// signalling entry: a release whose wire encoding is slow.
type gatedEncodeRelease struct {
	*UniversalRelease
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedEncodeRelease) MarshalJSON() ([]byte, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.UniversalRelease.MarshalJSON()
}

// A durable Put encodes its release before it takes the shard lock, so
// however long the encode takes, reads of other names on the same shard
// go through.
func TestDurablePutEncodesOutsideShardLock(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, WithShards(1), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("a", testRelease(t, 1)); err != nil {
		t.Fatal(err)
	}
	g := &gatedEncodeRelease{
		UniversalRelease: testRelease(t, 2).(*UniversalRelease),
		entered:          make(chan struct{}),
		gate:             make(chan struct{}),
	}
	put := make(chan error, 1)
	go func() {
		_, err := s.Put("b", g)
		put <- err
	}()
	<-g.entered
	got := make(chan bool, 1)
	go func() {
		_, _, ok := s.Get("a")
		got <- ok
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Error("Get(a) found nothing")
		}
	case <-time.After(5 * time.Second):
		t.Error("Get of another name blocked behind a Put's release encoding")
	}
	close(g.gate)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The journaled put is the wrapper's own encoding, which decodes.
	re, err := OpenStore(dir, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, _, ok := re.Get("b"); !ok {
		t.Fatal("b missing after reopen")
	}
}
