package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/laplace"
	"github.com/dphist/dphist/internal/linalg"
	"github.com/dphist/dphist/internal/stats"
)

func TestNewAndAddValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero domain accepted")
	}
	w := MustNew(8)
	if err := w.Add(-1, 4, 1); err == nil {
		t.Error("negative lo accepted")
	}
	if err := w.Add(0, 9, 1); err == nil {
		t.Error("hi beyond domain accepted")
	}
	if err := w.Add(3, 3, 1); err == nil {
		t.Error("empty range accepted")
	}
	if err := w.Add(0, 4, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := w.Add(0, 4, 2); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 || w.Domain() != 8 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestAllRangesAndPrefixes(t *testing.T) {
	w, err := AllRanges(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 10 { // C(4,2)+4 = 10 non-empty ranges
		t.Fatalf("AllRanges(4) has %d queries, want 10", w.Len())
	}
	p, err := Prefixes(5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 5 {
		t.Fatalf("Prefixes(5) has %d queries", p.Len())
	}
	for _, q := range p.Queries() {
		if q.Lo != 0 {
			t.Fatal("prefix query does not start at 0")
		}
	}
}

func TestErrorLaplaceFormula(t *testing.T) {
	w := MustNew(16)
	_ = w.Add(0, 4, 1)  // width 4
	_ = w.Add(2, 10, 3) // width 8, weight 3
	const eps = 0.5
	want := (4*1.0 + 8*3.0) * 2 / (eps * eps)
	if got := w.ErrorLaplace(eps); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ErrorLaplace = %v, want %v", got, want)
	}
}

func TestErrorHTildeCountsSubtrees(t *testing.T) {
	w := MustNew(8)
	_ = w.Add(0, 8, 1) // the root: one subtree
	const eps = 1.0
	tree := htree.MustNew(2, 8)
	want := core.NoiseVariance(core.SensitivityH(tree), eps)
	got, err := w.ErrorHTilde(2, eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("root query H~ error %v, want one node's variance %v", got, want)
	}
}

// The exact H-bar prediction must match Monte Carlo measurement.
func TestErrorHBarMatchesMonteCarlo(t *testing.T) {
	const n, eps, trials = 32, 1.0, 3000
	w := MustNew(n)
	ranges := [][2]int{{0, 32}, {5, 9}, {0, 16}, {17, 31}, {12, 13}}
	for _, r := range ranges {
		_ = w.Add(r[0], r[1], 1)
	}
	predicted, err := w.ErrorHBar(2, eps)
	if err != nil {
		t.Fatal(err)
	}
	tree := htree.MustNew(2, n)
	unit := make([]float64, n) // zero data: error is pure noise, truth 0
	var acc stats.Accumulator
	for trial := 0; trial < trials; trial++ {
		htilde := core.ReleaseTree(tree, unit, eps, laplace.Stream(3, trial))
		hbar := core.InferTree(tree, htilde)
		sum := 0.0
		for _, r := range ranges {
			v := tree.RangeSum(hbar, r[0], r[1])
			sum += v * v
		}
		acc.Add(sum)
	}
	measured := acc.Mean()
	if rel := math.Abs(measured-predicted) / predicted; rel > 0.1 {
		t.Fatalf("H-bar prediction %v vs Monte Carlo %v (rel %v)", predicted, measured, rel)
	}
}

func TestErrorHBarNeverWorseThanHTilde(t *testing.T) {
	w, err := AllRanges(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		ht, err := w.ErrorHTilde(k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := w.ErrorHBar(k, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if hb > ht {
			t.Fatalf("k=%d: H-bar prediction %v exceeds H~ %v", k, hb, ht)
		}
	}
}

// The advisor reproduces the Figure 6 crossover: point queries favor L~,
// wide queries favor the hierarchy.
func TestRecommendCrossover(t *testing.T) {
	const n = 256
	points := MustNew(n)
	for i := 0; i < n; i++ {
		_ = points.Add(i, i+1, 1)
	}
	best, _, err := points.Recommend(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != StrategyLaplace {
		t.Fatalf("point workload recommended %v, want laplace", best.Strategy)
	}

	// Wide queries on a larger domain: 3/4-width ranges sit far past the
	// crossover, so the hierarchy with inference must win.
	const wn = 1024
	wide := MustNew(wn)
	for i := 0; i < 50; i++ {
		lo := (i * 5) % (wn / 4)
		_ = wide.Add(lo, lo+3*wn/4, 1)
	}
	best, all, err := wide.Recommend(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.Strategy != StrategyHBar {
		t.Fatalf("wide workload recommended %+v (all %+v), want hbar", best, all)
	}
}

func TestRecommendEmptyWorkload(t *testing.T) {
	w := MustNew(4)
	if _, _, err := w.Recommend(1.0); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestRecommendExactOnLargeDomains(t *testing.T) {
	w := MustNew(1 << 14)
	_ = w.Add(0, 1<<14, 1)
	best, all, err := w.Recommend(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// H-bar is exact at 2^14 leaves, and the full-domain query beats L~'s
	// 16384 unit variances.
	if best.Strategy != StrategyHBar || best.Confidence != ConfidenceExact {
		t.Fatalf("full-domain query recommended %+v, want exact hbar: %+v", best, all)
	}
}

func TestQueriesReturnsCopy(t *testing.T) {
	w := MustNew(8)
	_ = w.Add(0, 4, 1)
	qs := w.Queries()
	qs[0].Weight = 99
	if w.Queries()[0].Weight == 99 {
		t.Fatal("Queries aliases internal state")
	}
}

// choleskyQuadForm is the dense oracle for ErrorHBar: with A^T A = L L^T
// for the tree's design matrix A, c^T (A^T A)^{-1} c = ||L^{-1} c||^2.
// The indicator c is zero below lo, so the forward solve starts there.
func choleskyQuadForm(l *linalg.Matrix, lo, hi int) float64 {
	y := make([]float64, l.Rows)
	norm2 := 0.0
	for i := lo; i < l.Rows; i++ {
		sum := 0.0
		if i < hi {
			sum = 1
		}
		for j := lo; j < i; j++ {
			sum -= l.At(i, j) * y[j]
		}
		y[i] = sum / l.At(i, i)
		norm2 += y[i] * y[i]
	}
	return norm2
}

// The H-bar prediction must equal the explicit OLS variance
// sigma^2 * w * c^T (A^T A)^{-1} c from a Cholesky factorization, for
// every domain up to 300 (padded to a power of k or not) at each
// branching factor whose padded tree fits the dense oracle.
func TestErrorHBarMatchesCholesky(t *testing.T) {
	const eps = 0.7
	rng := rand.New(rand.NewPCG(14, 3))
	for _, k := range []int{2, 3, 4, 16} {
		factors := make(map[int]*linalg.Matrix) // by padded leaf count
		for n := 1; n <= 300; n++ {
			tree := htree.MustNew(k, n)
			if tree.NumLeaves() > 2048 {
				continue
			}
			l, ok := factors[tree.NumLeaves()]
			if !ok {
				a := core.TreeDesignMatrix(tree)
				var err error
				if l, err = linalg.Cholesky(a.T().Mul(a)); err != nil {
					t.Fatal(err)
				}
				factors[tree.NumLeaves()] = l
			}
			sigma2 := core.NoiseVariance(core.SensitivityH(tree), eps)
			queries := []Query{{0, n, 1}, {0, 1, 1}, {n - 1, n, 1}}
			for i := 0; i < 4; i++ {
				lo := rng.IntN(n)
				queries = append(queries, Query{lo, lo + 1 + rng.IntN(n-lo), 0.1 + 10*rng.Float64()})
			}
			for _, q := range queries {
				w := MustNew(n)
				if err := w.Add(q.Lo, q.Hi, q.Weight); err != nil {
					t.Fatal(err)
				}
				got, err := w.ErrorHBar(k, eps)
				if err != nil {
					t.Fatal(err)
				}
				want := q.Weight * sigma2 * choleskyQuadForm(l, q.Lo, q.Hi)
				if math.Abs(got-want) > 1e-9*want {
					t.Fatalf("k=%d domain %d query %+v: ErrorHBar %v, Cholesky %v", k, n, q, got, want)
				}
			}
		}
	}
}

// sizedWorkload returns the workload of m ranges drawn from a fixed
// stream over a domain of n.
func sizedWorkload(n, m int) *Workload {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(m)))
	w := MustNew(n)
	for i := 0; i < m; i++ {
		lo := rng.IntN(n)
		if err := w.Add(lo, lo+1+rng.IntN(n-lo), 1+rng.Float64()); err != nil {
			panic(err)
		}
	}
	return w
}

// Prediction work is bounded by the query count times the tree height:
// a 2^20-leaf, 4096-range workload predicts universal exactly, and the
// allocations do not grow with the number of queries.
func TestPredictAllBoundedWork(t *testing.T) {
	const n = 1 << 20
	big, one := sizedWorkload(n, 4096), sizedWorkload(n, 1)
	preds, err := big.PredictAll(0.5, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var universal *Prediction
	for i := range preds {
		if preds[i].Strategy == StrategyUniversal {
			universal = &preds[i]
		}
	}
	if universal == nil || universal.Confidence != ConfidenceExact || !(universal.Error > 0) {
		t.Fatalf("universal prediction %+v, want exact", universal)
	}
	allocs := func(w *Workload) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := w.PredictAll(0.5, PredictOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a4096, a1 := allocs(big), allocs(one); a4096 != a1 {
		t.Fatalf("PredictAll allocates %v times for 4096 queries, %v for 1", a4096, a1)
	}
}

// H~'s prediction counts each range's decomposition without building
// it, so its allocations do not grow with the number of queries.
func TestErrorHTildeBoundedAllocs(t *testing.T) {
	const n = 1 << 20
	big, one := sizedWorkload(n, 4096), sizedWorkload(n, 1)
	allocs := func(w *Workload) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := w.ErrorHTilde(2, 0.5); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a4096, a1 := allocs(big), allocs(one); a4096 != a1 {
		t.Fatalf("ErrorHTilde allocates %v times for 4096 queries, %v for 1", a4096, a1)
	}
}

// BenchmarkPredict times PredictAll, the advisor's full ranking, at the
// serving benchmark's sketch size on its two domains and at the sketch
// cap on a 2^20-leaf domain, and the H~ prediction alone at that cap.
func BenchmarkPredict(b *testing.B) {
	for _, c := range []struct{ n, m int }{{256, 24}, {1024, 24}, {1 << 20, 4096}} {
		w := sizedWorkload(c.n, c.m)
		b.Run(fmt.Sprintf("domain=%d/queries=%d", c.n, c.m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.PredictAll(0.5, PredictOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	w := sizedWorkload(1<<20, 4096)
	b.Run("htilde/domain=1048576/queries=4096", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.ErrorHTilde(2, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
