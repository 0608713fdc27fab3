package dphist

// The plan-equivalence property: for every strategy, over a sweep of
// domains and epsilons, the plan-based batch engines must answer
// exactly — bit-identically — what the per-query Release.Range and
// RectQuerier.Rect calls answer, before and after a JSON round trip
// through DecodeRelease (which recompiles the plan from the wire form).
// This is the contract that lets the store answer every batch from the
// compiled plan while Range stays the reference semantics.

import (
	"encoding/json"
	"math/rand/v2"
	"testing"
)

// chainHierarchy builds a one-root forest with n leaf queries, so the
// hierarchy strategy can join domain sweeps of any size.
func chainHierarchy(t testing.TB, n int) *Hierarchy {
	t.Helper()
	parent := make([]int, n+1)
	parent[0] = -1
	for i := 1; i <= n; i++ {
		parent[i] = 0
	}
	h, err := NewHierarchy(parent)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// reshapeCells folds a count vector into rows of width w for the 2-D
// strategy.
func reshapeCells(counts []float64, w int) [][]float64 {
	var cells [][]float64
	for lo := 0; lo < len(counts); lo += w {
		hi := min(lo+w, len(counts))
		cells = append(cells, counts[lo:hi])
	}
	return cells
}

// mintAll mints one release of every strategy over a domain-sized input.
func mintAll(t testing.TB, m *Mechanism, domain int, eps float64) []Release {
	t.Helper()
	counts := make([]float64, domain)
	for i := range counts {
		counts[i] = float64((i*13 + 5) % 17)
	}
	out := make([]Release, 0, len(Strategies()))
	for _, strategy := range Strategies() {
		req := Request{Strategy: strategy, Counts: counts, Epsilon: eps}
		switch strategy {
		case StrategyHierarchy:
			req.Hierarchy = chainHierarchy(t, domain)
		case StrategyUniversal2D:
			req.Counts = nil
			req.Cells = reshapeCells(counts, max(1, domain/2))
		}
		rel, err := m.Release(req)
		if err != nil {
			t.Fatalf("domain %d, %v: %v", domain, strategy, err)
		}
		out = append(out, rel)
	}
	return out
}

// rangeSweep enumerates every (lo, hi) pair for small domains and a
// deterministic random sample for larger ones.
func rangeSweep(n int, rng *rand.Rand) []RangeSpec {
	if n <= 24 {
		var specs []RangeSpec
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				specs = append(specs, RangeSpec{Lo: lo, Hi: hi})
			}
		}
		return specs
	}
	specs := make([]RangeSpec, 300)
	for i := range specs {
		lo := rng.IntN(n + 1)
		specs[i] = RangeSpec{Lo: lo, Hi: lo + rng.IntN(n-lo+1)}
	}
	return specs
}

func TestPlanEquivalenceAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 41))
	for _, consistent := range []bool{false, true} {
		opts := []Option{WithSeed(91)}
		if consistent {
			opts = append(opts, WithoutNonNegativity(), WithoutRounding())
		}
		for _, domain := range []int{1, 2, 5, 16, 33, 64} {
			for _, eps := range []float64{1.0, 0.1} {
				for _, rel := range mintAll(t, MustNew(opts...), domain, eps) {
					checkPlanEquivalence(t, rel, rng)
				}
			}
		}
	}
}

// checkPlanEquivalence holds one release to the contract: batch ==
// per-query exactly, and a decoded copy answers bit-identically.
func checkPlanEquivalence(t *testing.T, rel Release, rng *rand.Rand) {
	t.Helper()
	n := len(rel.Counts())
	specs := rangeSweep(n, rng)
	got, err := QueryBatch(rel, specs)
	if err != nil {
		t.Fatalf("%v: %v", rel.Strategy(), err)
	}
	for i, q := range specs {
		want, err := rel.Range(q.Lo, q.Hi)
		if err != nil {
			t.Fatalf("%v: Range(%d,%d): %v", rel.Strategy(), q.Lo, q.Hi, err)
		}
		if got[i] != want {
			t.Fatalf("%v: batch [%d,%d) = %v, Range = %v", rel.Strategy(), q.Lo, q.Hi, got[i], want)
		}
	}

	data, err := json.Marshal(rel)
	if err != nil {
		t.Fatalf("%v: %v", rel.Strategy(), err)
	}
	back, err := DecodeRelease(data)
	if err != nil {
		t.Fatalf("%v: decode: %v", rel.Strategy(), err)
	}
	decoded, err := QueryBatch(back, specs)
	if err != nil {
		t.Fatalf("%v: decoded batch: %v", rel.Strategy(), err)
	}
	for i := range got {
		if decoded[i] != got[i] {
			t.Fatalf("%v: decoded plan answers %v, original %v (spec %+v)",
				rel.Strategy(), decoded[i], got[i], specs[i])
		}
	}

	rq, ok := rel.(RectQuerier)
	if !ok {
		return
	}
	w, h := rq.Width(), rq.Height()
	var rects []RectSpec
	for i := 0; i < 60; i++ {
		x0, y0 := rng.IntN(w+1), rng.IntN(h+1)
		rects = append(rects, RectSpec{X0: x0, Y0: y0, X1: x0 + rng.IntN(w-x0+1), Y1: y0 + rng.IntN(h-y0+1)})
	}
	gotR, err := QueryRects(rel, rects)
	if err != nil {
		t.Fatalf("%v: %v", rel.Strategy(), err)
	}
	for i, q := range rects {
		want, err := rq.Rect(q.X0, q.Y0, q.X1, q.Y1)
		if err != nil {
			t.Fatalf("%v: Rect%+v: %v", rel.Strategy(), q, err)
		}
		if gotR[i] != want {
			t.Fatalf("%v: batch rect %+v = %v, Rect = %v", rel.Strategy(), q, gotR[i], want)
		}
	}
	decodedR, err := QueryRects(back, rects)
	if err != nil {
		t.Fatalf("%v: decoded rects: %v", rel.Strategy(), err)
	}
	for i := range gotR {
		if decodedR[i] != gotR[i] {
			t.Fatalf("%v: decoded rect plan answers %v, original %v", rel.Strategy(), decodedR[i], gotR[i])
		}
	}
}

// auditedRelease embeds a concrete in-library release and overrides
// Range — the shape of user code that wraps a release to log, deny, or
// transform queries.
type auditedRelease struct {
	*UniversalRelease
	calls int
}

func (a *auditedRelease) Range(lo, hi int) (float64, error) {
	a.calls++
	v, err := a.UniversalRelease.Range(lo, hi)
	return v + 1000, err // visibly different from the plan's answer
}

// A wrapper embedding an in-library release promotes the unexported
// queryPlan method, but the batch engine must NOT take that plan: it
// would silently bypass the wrapper's Range override. releasePlan
// dispatches on exact concrete types, so wrappers fall back to Range.
func TestWrappedReleaseKeepsItsRangeOverride(t *testing.T) {
	rel, err := MustNew(WithSeed(95)).UniversalHistogram([]float64{1, 2, 3, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &auditedRelease{UniversalRelease: rel}
	got, err := QueryBatch(wrapped, []RangeSpec{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.calls != 2 {
		t.Fatalf("wrapper Range called %d times, want 2 (plan bypassed the override)", wrapped.calls)
	}
	for i, q := range []RangeSpec{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}} {
		base, err := rel.Range(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != base+1000 {
			t.Fatalf("answer %d = %v, want the override's %v", i, got[i], base+1000)
		}
	}
}

// Every one of the seven strategies must answer batches without
// allocating in steady state — the acceptance bar the old engine only
// met for UniversalRelease.
func TestBatchPathZeroAllocAllStrategies(t *testing.T) {
	if raceEnabled {
		t.Skip("race-enabled sync.Pool drops Puts, so the columnar scratch shows spurious allocations")
	}
	rng := rand.New(rand.NewPCG(3, 9))
	for _, rel := range mintAll(t, MustNew(WithSeed(92)), 64, 0.5) {
		n := len(rel.Counts())
		specs := make([]RangeSpec, 200)
		for i := range specs {
			lo := rng.IntN(n)
			specs[i] = RangeSpec{Lo: lo, Hi: lo + 1 + rng.IntN(n-lo)}
		}
		dst := make([]float64, 0, len(specs))
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			dst, err = QueryBatchInto(dst[:0], rel, specs)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: QueryBatchInto allocates %v per batch", rel.Strategy(), allocs)
		}
		rq, ok := rel.(RectQuerier)
		if !ok {
			continue
		}
		w, h := rq.Width(), rq.Height()
		rects := make([]RectSpec, 200)
		for i := range rects {
			x0, y0 := rng.IntN(w), rng.IntN(h)
			rects[i] = RectSpec{X0: x0, Y0: y0, X1: x0 + 1 + rng.IntN(w-x0), Y1: y0 + 1 + rng.IntN(h-y0)}
		}
		rdst := make([]float64, 0, len(rects))
		allocs = testing.AllocsPerRun(50, func() {
			var err error
			rdst, err = QueryRectsInto(rdst[:0], rel, rects)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: QueryRectsInto allocates %v per batch", rel.Strategy(), allocs)
		}
	}
}
