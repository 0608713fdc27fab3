package dphist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/dphist/dphist/internal/histo2d"
	"github.com/dphist/dphist/internal/htree"
)

// wireOracle returns the reflection form of a release: the *Wire struct
// json.Marshal encoded before AppendRelease existed. Its encoding is the
// byte-for-byte reference for the append encoder.
func wireOracle(t testing.TB, r Release) any {
	t.Helper()
	switch r := r.(type) {
	case *UniversalRelease:
		return universalWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			K: r.tree.K(), Domain: r.tree.Domain(), Noisy: r.noisy, Inferred: r.inferred, Post: r.post}
	case *Universal2DRelease:
		return universal2DWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Width: r.grid.Width(), Height: r.grid.Height(), Noisy: r.noisy, Inferred: r.inferred, Post: r.post}
	case *UnattributedRelease:
		return unattributedWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Noisy: r.Noisy, Inferred: r.Inferred, Counts: r.counts}
	case *LaplaceRelease:
		return laplaceWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Noisy: r.Noisy, Counts: r.counts}
	case *WaveletRelease:
		return waveletWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Counts: r.counts}
	case *DegreeSequenceRelease:
		return degreeSequenceWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Noisy: r.Noisy, Inferred: r.Inferred, Counts: r.counts}
	case *HierarchyReleaseResult:
		return hierarchyWire{Version: WireVersion, Strategy: r.Strategy().String(), Epsilon: r.eps, Auto: r.auto,
			Parent: r.parent, Noisy: r.Noisy, Inferred: r.Inferred}
	}
	t.Fatalf("no wire oracle for %T", r)
	return nil
}

// checkAppendMatchesOracle fails unless AppendRelease, appending after a
// prefix, and MarshalJSON both produce the oracle's bytes.
func checkAppendMatchesOracle(t *testing.T, r Release) {
	t.Helper()
	want, err := json.Marshal(wireOracle(t, r))
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	prefix := []byte("prefix:")
	got, err := AppendRelease(append([]byte(nil), prefix...), r)
	if err != nil {
		t.Fatalf("AppendRelease: %v", err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendRelease diverges from the reflection oracle:\n got %s\nwant %s", got, want)
	}
	viaMarshal, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !bytes.Equal(viaMarshal, want) {
		t.Fatalf("json.Marshal diverges from the reflection oracle:\n got %s\nwant %s", viaMarshal, want)
	}
}

// AppendRelease must equal json.Marshal of the reflection wire struct
// for every strategy and every pipeline option.
func TestAppendReleaseMatchesReflection(t *testing.T) {
	mechs := map[string]*Mechanism{
		"rounded":        MustNew(WithSeed(5)),
		"unrounded":      MustNew(WithSeed(5), WithoutRounding()),
		"negative":       MustNew(WithSeed(5), WithoutNonNegativity()),
		"raw":            MustNew(WithSeed(5), WithoutRounding(), WithoutNonNegativity()),
		"branching four": MustNew(WithSeed(5), WithBranching(4)),
	}
	for name, m := range mechs {
		for _, rel := range mintAll(t, m, 70, 0.3) {
			t.Run(fmt.Sprintf("%s/%v", name, rel.Strategy()), func(t *testing.T) {
				checkAppendMatchesOracle(t, rel)
			})
		}
	}
}

// An auto-minted release carries the advisor decision in its header.
func TestAppendReleaseAutoStamped(t *testing.T) {
	counts := make([]float64, 64)
	for i := range counts {
		counts[i] = float64(i % 5)
	}
	for _, preset := range []string{"count_of_counts", "prefixes", "points"} {
		rel, err := MustNew(WithSeed(9)).Release(Request{
			Strategy: StrategyAuto, Counts: counts, Epsilon: 0.5,
			Workload: &WorkloadSketch{Preset: preset},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ReleaseDecision(rel); !ok {
			t.Fatalf("%s: release carries no auto decision", preset)
		}
		checkAppendMatchesOracle(t, rel)
	}
}

// Nil vectors encode as null, and every JSON number edge of the float
// formatter — negative zero, the integer fast path's limits, the switch
// to exponent form — matches encoding/json in every vector position.
func TestAppendReleaseEdgeValues(t *testing.T) {
	tree, err := htree.New(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := histo2d.New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	nils := []Release{
		&UniversalRelease{tree: tree, eps: 1},
		&Universal2DRelease{grid: grid, eps: 1},
		&UnattributedRelease{eps: 1},
		&LaplaceRelease{eps: 1},
		&WaveletRelease{eps: 1},
		&DegreeSequenceRelease{eps: 1},
		&HierarchyReleaseResult{eps: 1},
	}
	for _, rel := range nils {
		checkAppendMatchesOracle(t, rel)
	}

	edges := []float64{
		math.Copysign(0, -1), 0, 1, -1,
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2,
		1e20, 1e21, -1e21, 1e-7, -1e-7, 1e-6, 123456.5, 0.1, 1.0 / 3,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	v := func() []float64 { return append([]float64(nil), edges...) }
	eps := []float64{1e-7, 0.1, 1, 1e21}
	for _, e := range eps {
		for _, rel := range []Release{
			&UniversalRelease{tree: tree, eps: e, noisy: v(), inferred: v(), post: v()},
			&Universal2DRelease{grid: grid, eps: e, noisy: v(), inferred: v(), post: v()},
			&UnattributedRelease{eps: e, Noisy: v(), Inferred: v(), counts: v()},
			&LaplaceRelease{eps: e, Noisy: v(), counts: v()},
			&WaveletRelease{eps: e, counts: v()},
			&DegreeSequenceRelease{eps: e, Noisy: v(), Inferred: v(), counts: []float64{}},
			&HierarchyReleaseResult{eps: e, parent: []int{-1, 0, 0, 1 << 40}, Noisy: v(), Inferred: []float64{}},
		} {
			checkAppendMatchesOracle(t, rel)
		}
	}
}

// A value JSON cannot carry fails the encode, as it fails json.Marshal.
func TestAppendReleaseRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rel := &LaplaceRelease{eps: 1, Noisy: []float64{1, bad}, counts: []float64{1, 2}}
		if _, err := AppendRelease(nil, rel); err == nil {
			t.Errorf("AppendRelease encoded %v", bad)
		}
		if _, err := json.Marshal(rel); err == nil {
			t.Errorf("json.Marshal encoded %v", bad)
		}
	}
}

// opaqueRelease is a Release implemented outside the library.
type opaqueRelease struct {
	Release
	Label string `json:"label"`
}

// Implementations outside the library, and nil pointers of library
// types, go through json.Marshal unchanged.
func TestAppendReleaseFallsBackToMarshal(t *testing.T) {
	inner, err := MustNew(WithSeed(1)).LaplaceHistogram([]float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Release{
		opaqueRelease{Release: inner, Label: "<x>"},
		(*UniversalRelease)(nil),
		(*HierarchyReleaseResult)(nil),
	} {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendRelease([]byte("["), r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "["+string(want) {
			t.Fatalf("%T: got %s, want [%s", r, got, want)
		}
	}
}

func BenchmarkAppendRelease(b *testing.B) {
	counts := make([]float64, 1024)
	for i := range counts {
		counts[i] = float64(i % 37)
	}
	rel, err := MustNew(WithSeed(2)).Release(Request{Strategy: StrategyUniversal, Counts: counts, Epsilon: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendRelease(nil, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(wireOracle(b, rel)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
