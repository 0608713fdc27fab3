package dphist

// Regression tests for the answer life-cycle contract: a release's
// answers must die with the release. After a Delete or a same-name
// re-Put (version bump), Query must never answer from the old release —
// including across an OpenStore kill-and-reopen, where versions
// continue. Every batch is answered from the live release's compiled
// plan, so these pin the Store's lookup, not any answer memo.

import (
	"errors"
	"path/filepath"
	"testing"
)

func mintTestRelease(t testing.TB, seed uint64) *UniversalRelease {
	t.Helper()
	counts := make([]float64, 64)
	for i := range counts {
		counts[i] = float64(i % 9)
	}
	rel, err := MustNew(WithSeed(seed)).UniversalHistogram(counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

var lifecycleTestSpecs = []RangeSpec{{Lo: 0, Hi: 64}, {Lo: 3, Hi: 41}, {Lo: 63, Hi: 64}}

func TestQueryCacheInvalidatedByRePut(t *testing.T) {
	s := NewStore()
	relA := mintTestRelease(t, 53)
	relB := mintTestRelease(t, 54) // different noise draw, different answers
	if _, err := s.Put("r", relA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query("r", lifecycleTestSpecs); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("r", relB); err != nil {
		t.Fatal(err)
	}
	got, entry, err := s.Query("r", lifecycleTestSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 2 {
		t.Fatalf("version = %d, want 2", entry.Version)
	}
	assertAnswers(t, got, relB, lifecycleTestSpecs)
}

func TestQueryCacheInvalidatedByDelete(t *testing.T) {
	s := NewStore()
	if _, err := s.Put("r", mintTestRelease(t, 55)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query("r", lifecycleTestSpecs); err != nil {
		t.Fatal(err)
	}
	if !s.Delete("r") {
		t.Fatal("delete missed")
	}
	if _, _, err := s.Query("r", lifecycleTestSpecs); !errors.Is(err, ErrReleaseNotFound) {
		t.Fatalf("query after delete = %v, want ErrReleaseNotFound", err)
	}
}

// The life-cycle contract must hold across a kill-and-reopen: versions
// continue, recovered releases answer as before, and deletes stay
// deleted.
func TestQueryCacheAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := OpenStore(filepath.Join(dir, "store"), WithoutSync())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	relA := mintTestRelease(t, 59)
	if _, err := s.Put("r", relA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("gone", mintTestRelease(t, 60)); err != nil {
		t.Fatal(err)
	}
	before, _, err := s.Query("r", lifecycleTestSpecs)
	if err != nil {
		t.Fatal(err)
	}
	s.Delete("gone")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	got, entry, err := s.Query("r", lifecycleTestSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 1 {
		t.Fatalf("recovered version = %d", entry.Version)
	}
	for i := range before {
		if got[i] != before[i] {
			t.Fatalf("recovered answer %d = %v, pre-crash %v", i, got[i], before[i])
		}
	}
	if _, _, err := s.Query("gone", lifecycleTestSpecs); !errors.Is(err, ErrReleaseNotFound) {
		t.Fatalf("deleted release answered after reopen: %v", err)
	}
	// A re-Put after reopen continues the version sequence and serves
	// the new release's answers, not the recovered predecessor's.
	relB := mintTestRelease(t, 61)
	if _, err := s.Put("r", relB); err != nil {
		t.Fatal(err)
	}
	got, entry, err = s.Query("r", lifecycleTestSpecs)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Version != 2 {
		t.Fatalf("post-reopen re-put version = %d, want 2", entry.Version)
	}
	assertAnswers(t, got, relB, lifecycleTestSpecs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
