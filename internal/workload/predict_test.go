package workload

import (
	"math"
	"testing"

	"github.com/dphist/dphist/internal/core"
)

func TestRankOrdering(t *testing.T) {
	preds := []Prediction{
		{Strategy: StrategyWavelet, Error: 5, Confidence: ConfidenceExact},
		{Strategy: StrategyUnattributed, Error: 3, Confidence: ConfidenceBound},
		{Strategy: StrategyLaplace, Error: 3, Confidence: ConfidenceExact},
		{Strategy: StrategyUniversal, Branching: 4, Error: 3, Confidence: ConfidenceExact},
		{Strategy: StrategyUniversal, Branching: 2, Error: 3, Confidence: ConfidenceExact},
	}
	Rank(preds)
	// Equal error: exact beats bound, then canonical strategy order
	// (universal before laplace), then smaller branching.
	want := []struct {
		s Strategy
		k int
	}{
		{StrategyUniversal, 2},
		{StrategyUniversal, 4},
		{StrategyLaplace, 0},
		{StrategyUnattributed, 0},
		{StrategyWavelet, 0},
	}
	for i, w := range want {
		if preds[i].Strategy != w.s || preds[i].Branching != w.k {
			t.Fatalf("rank %d = %s k=%d, want %s k=%d",
				i, preds[i].Strategy, preds[i].Branching, w.s, w.k)
		}
	}
}

func TestSetGridAndAddRectValidation(t *testing.T) {
	w, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddRect(0, 0, 1, 1, 1); err == nil {
		t.Fatal("AddRect before SetGrid")
	}
	if err := w.SetGrid(0, 4); err == nil {
		t.Fatal("zero-width grid")
	}
	if err := w.SetGrid(8, 8); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][4]int{
		{-1, 0, 1, 1}, {0, -1, 1, 1}, {0, 0, 9, 1}, {0, 0, 1, 9}, {2, 0, 2, 1}, {0, 3, 1, 3},
	} {
		if err := w.AddRect(bad[0], bad[1], bad[2], bad[3], 1); err == nil {
			t.Fatalf("accepted rect %v", bad)
		}
	}
	if err := w.AddRect(0, 0, 1, 1, math.Inf(1)); err == nil {
		t.Fatal("accepted infinite weight")
	}
	if err := w.AddRect(1, 1, 8, 8, 2); err != nil {
		t.Fatal(err)
	}
	// The grid cannot shrink below an existing rect.
	if err := w.SetGrid(4, 4); err == nil {
		t.Fatal("grid shrank below existing rect")
	}
	if w.RectLen() != 1 {
		t.Fatalf("RectLen = %d", w.RectLen())
	}
}

func TestErrorWaveletFullCoverIsRootOnly(t *testing.T) {
	// A full-domain range on a power-of-two domain touches no detail
	// boundaries: only the scaled root coefficient contributes, so the
	// closed form collapses to n^2 * Var(c0).
	const n = 16
	w, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(0, n, 1); err != nil {
		t.Fatal(err)
	}
	eps := 0.5
	rho := 1 + math.Log2(n)
	want := float64(n*n) * core.NoiseVariance(rho/n, eps)
	if got := w.ErrorWavelet(eps); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("full-cover wavelet error %v, want %v", got, want)
	}
}

func TestQuadDecomposeCount(t *testing.T) {
	cases := []struct {
		rect [4]int
		want int
	}{
		{[4]int{0, 0, 8, 8}, 1},  // whole root
		{[4]int{0, 0, 4, 4}, 1},  // one child quadrant
		{[4]int{0, 0, 8, 4}, 2},  // top half: two quadrants
		{[4]int{1, 1, 2, 2}, 1},  // single cell
		{[4]int{0, 0, 5, 5}, 10}, // quadrant + two strips of 4 cells + corner cell
		{[4]int{3, 3, 5, 5}, 4},  // center straddling all four quadrants
		{[4]int{0, 0, 0, 8}, 0},  // empty
	}
	for _, tc := range cases {
		got := quadDecomposeCount(0, 0, 8, tc.rect[0], tc.rect[1], tc.rect[2], tc.rect[3])
		if got != tc.want {
			t.Errorf("decompose %v = %d nodes, want %d", tc.rect, got, tc.want)
		}
	}
}

func TestPredictAllRequiresQueries(t *testing.T) {
	w, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.PredictAll(1.0, PredictOptions{}); err == nil {
		t.Fatal("empty workload predicted")
	}
	if err := w.Add(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PredictAll(0, PredictOptions{}); err == nil {
		t.Fatal("zero epsilon predicted")
	}
	preds, err := w.PredictAll(1.0, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// No hierarchy sensitivity, no grid: the five always-on strategies.
	if len(preds) != 5 {
		t.Fatalf("%d predictions: %+v", len(preds), preds)
	}
	for _, p := range preds {
		if p.Strategy == StrategyHierarchy || p.Strategy == StrategyUniversal2D {
			t.Fatalf("unexpected candidate %s", p.Strategy)
		}
	}
}

func TestErrorHierarchyRejectsBadSensitivity(t *testing.T) {
	w, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(0, 4, 1); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, 0.5, -1, math.Inf(1)} {
		if _, err := w.ErrorHierarchy(bad, 1.0); err == nil {
			t.Fatalf("accepted sensitivity %v", bad)
		}
	}
	got, err := w.ErrorHierarchy(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * core.NoiseVariance(3, 0.5)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("hierarchy error %v, want %v", got, want)
	}
}
