package dphist

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

func testRelease(t testing.TB, seed uint64) Release {
	t.Helper()
	rel, err := MustNew(WithSeed(seed)).UniversalHistogram([]float64{2, 0, 10, 2, 5, 5, 5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// assertAnswers requires answers to equal QueryBatch(rel, specs) bit for
// bit: a stored release must answer exactly as the bare release does.
func assertAnswers(t *testing.T, answers []float64, rel Release, specs []RangeSpec) {
	t.Helper()
	want, err := QueryBatch(rel, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != len(want) {
		t.Fatalf("%d answers, want %d", len(answers), len(want))
	}
	for i := range want {
		if answers[i] != want[i] {
			t.Fatalf("answers = %v, want %v", answers, want)
		}
	}
}

func TestStorePutGetVersioning(t *testing.T) {
	s := NewStore()
	rel := testRelease(t, 1)
	entry, err := s.Put("traffic", rel)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Name != "traffic" || entry.Version != 1 ||
		entry.Strategy != StrategyUniversal || entry.Epsilon != 1 || entry.Domain != 8 {
		t.Fatalf("entry = %+v", entry)
	}
	got, gotEntry, ok := s.Get("traffic")
	if !ok || got != rel || gotEntry != entry {
		t.Fatalf("Get = %v, %+v, %v", got, gotEntry, ok)
	}
	// Replacing bumps the version and serves the new release.
	rel2 := testRelease(t, 2)
	entry2, err := s.Put("traffic", rel2)
	if err != nil {
		t.Fatal(err)
	}
	if entry2.Version != 2 {
		t.Fatalf("version after replace = %d", entry2.Version)
	}
	if got, _, _ := s.Get("traffic"); got != rel2 {
		t.Fatal("Get did not serve the replacement")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if _, _, ok := s.Get("absent"); ok {
		t.Fatal("absent name found")
	}
}

func TestStoreRejectsBadPuts(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("", testRelease(t, 1)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.Put("x", nil); err == nil {
		t.Error("nil release accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after rejected puts", s.Len())
	}
}

// Names that cannot survive as URL path segments — empty, dot segments,
// anything with a slash — must be refused at the store boundary, for
// both release names and namespaces, before any state (entries,
// versions, accountants) springs into being. A release stored under
// "a/b" would be unroutable over /v1/ns/{ns}/... and ambiguous in logs
// and journals.
func TestStoreRejectsUnroutableNames(t *testing.T) {
	bad := []string{"", ".", "..", "a/b", "/", "tenant/../other", "x/"}
	s := NewStore()
	rel := testRelease(t, 1)
	for _, name := range bad {
		if _, err := s.Put(name, rel); !errors.Is(err, ErrBadName) {
			t.Errorf("Put(%q) error = %v, want ErrBadName", name, err)
		}
		if err := ValidateName(name); !errors.Is(err, ErrBadName) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadName", name, err)
		}
	}
	session, err := NewSession(MustNew(WithSeed(9)), 10)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Counts: []float64{1, 2, 3}, Epsilon: 1}
	for _, name := range bad {
		if name == "" {
			continue // empty aliases the default namespace by design
		}
		ns := s.Namespace(name)
		if ns.Err() == nil {
			t.Fatalf("Namespace(%q).Err() = nil", name)
		}
		if ns.Accountant() != nil {
			t.Fatalf("Namespace(%q) created an accountant", name)
		}
		if _, err := ns.Session(MustNew()); err == nil {
			t.Fatalf("Namespace(%q).Session succeeded", name)
		}
		if _, err := ns.Put("ok", rel); !errors.Is(err, ErrBadName) {
			t.Fatalf("Namespace(%q).Put error = %v", name, err)
		}
		// Minting under a bad release name must not charge the budget.
		before := session.Remaining()
		if _, _, err := s.Mint(session, name, req); !errors.Is(err, ErrBadName) {
			t.Fatalf("Mint(%q) error = %v", name, err)
		}
		if session.Remaining() != before {
			t.Fatalf("Mint(%q) charged the budget despite rejection", name)
		}
		if _, _, err := ns.Mint(session, "ok", req); !errors.Is(err, ErrBadName) {
			t.Fatalf("Namespace(%q).Mint error = %v", name, err)
		}
		if session.Remaining() != before {
			t.Fatalf("Namespace(%q).Mint charged the budget despite rejection", name)
		}
	}
	if s.Len() != 0 || len(s.Namespaces()) != 0 {
		t.Fatalf("rejected names created state: %d entries, namespaces %v",
			s.Len(), s.Namespaces())
	}
	// Dots inside names (versions, domains) stay legal — only the exact
	// dot segments are path hazards.
	if err := ValidateName("geo.analytics-v1.2"); err != nil {
		t.Fatalf("ValidateName(dotted) = %v", err)
	}
	if ns := s.Namespace("geo.analytics"); ns.Err() != nil {
		t.Fatalf("dotted namespace refused: %v", ns.Err())
	}
}

func TestStoreListAndDelete(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"c", "a", "b"} {
		if _, err := s.Put(name, testRelease(t, 1)); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List()
	if len(list) != 3 || list[0].Name != "a" || list[1].Name != "b" || list[2].Name != "c" {
		t.Fatalf("List = %+v", list)
	}
	if !s.Delete("b") {
		t.Fatal("Delete(b) = false")
	}
	if s.Delete("b") {
		t.Fatal("second Delete(b) = true")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestStoreQuery(t *testing.T) {
	s := NewStore()
	rel := testRelease(t, 1)
	if _, err := s.Put("traffic", rel); err != nil {
		t.Fatal(err)
	}
	specs := []RangeSpec{{Lo: 0, Hi: 8}, {Lo: 2, Hi: 2}, {Lo: 3, Hi: 6}}
	answers, entry, err := s.Query("traffic", specs)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 1 {
		t.Fatalf("entry = %+v", entry)
	}
	assertAnswers(t, answers, rel, specs)
	if _, _, err := s.Query("absent", specs); !errors.Is(err, ErrReleaseNotFound) {
		t.Fatalf("missing name error = %v", err)
	}
	if _, _, err := s.Query("traffic", []RangeSpec{{Lo: 0, Hi: 99}}); err == nil {
		t.Fatal("out-of-domain spec accepted")
	}
}

func TestStoreMint(t *testing.T) {
	session, err := NewSession(MustNew(WithSeed(5)), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	counts := []float64{1, 2, 3, 4}
	rel, entry, err := s.Mint(session, "hist", Request{Counts: counts, Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 1 || entry.Strategy != StrategyUniversal {
		t.Fatalf("entry = %+v", entry)
	}
	if got, _, ok := s.Get("hist"); !ok || got != rel {
		t.Fatal("minted release not stored")
	}
	if rem := session.Remaining(); rem != 0.5 {
		t.Fatalf("remaining = %v", rem)
	}
	// Failed mints charge and store nothing.
	if _, _, err := s.Mint(session, "bad", Request{Counts: nil, Epsilon: 0.1}); err == nil {
		t.Fatal("invalid request minted")
	}
	if _, _, err := s.Mint(session, "", Request{Counts: counts, Epsilon: 0.1}); err == nil {
		t.Fatal("empty name minted")
	}
	if _, _, err := s.Mint(nil, "x", Request{Counts: counts, Epsilon: 0.1}); err == nil {
		t.Fatal("nil session minted")
	}
	if rem := session.Remaining(); rem != 0.5 {
		t.Fatalf("failed mints charged the budget: remaining = %v", rem)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Overdraw refuses with ErrBudgetExceeded and stores nothing.
	if _, _, err := s.Mint(session, "hist", Request{Counts: counts, Epsilon: 0.9}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overdraw error = %v", err)
	}
	if _, entry, _ := s.Get("hist"); entry.Version != 1 {
		t.Fatal("refused mint replaced the stored release")
	}
}

// The serving-layer torture test: parallel puts, gets, queries, lists,
// and deletes against one store, run under -race.
func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	rel := testRelease(t, 1)
	specs := []RangeSpec{{Lo: 0, Hi: 8}, {Lo: 1, Hi: 3}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 99))
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("rel-%d", rng.IntN(12))
				switch rng.IntN(5) {
				case 0:
					if _, err := s.Put(name, rel); err != nil {
						t.Error(err)
						return
					}
				case 1:
					s.Get(name)
				case 2:
					if _, _, err := s.Query(name, specs); err != nil &&
						!errors.Is(err, ErrReleaseNotFound) {
						t.Error(err)
						return
					}
				case 3:
					s.List()
				case 4:
					s.Delete(name)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := s.Len(); n > 12 {
		t.Fatalf("store of 12 names holds %d entries", n)
	}
}
