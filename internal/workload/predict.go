package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/histo2d"
)

// This file extends the advisor's analytic error model from the original
// three estimators (L~, H~, H-bar) to every serving strategy, so a
// workload can rank all seven release pipelines before any budget is
// spent. Each prediction carries a Confidence tag:
//
//   - laplace, wavelet, universal: closed-form expectations of the linear
//     mechanism ("exact"). The universal prediction is the H-bar OLS
//     variance on every domain.
//   - unattributed, degree_sequence: the sorted query's pre-inference
//     noise cost ("bound"). The exact post-isotonic error depends on the
//     data's level-set structure (Theorem 2) and is not computable
//     without looking at the data, so the advisor reports the
//     data-independent upper bound; isotonic regression (and the
//     graphical projection) can only move the estimate toward the
//     feasible set containing the truth.
//   - hierarchy: per-node noise variance summed over the queried leaves
//     ("bound"); least-squares inference is an orthogonal projection and
//     never increases the variance of a linear query.
//   - universal2d: quadtree decomposition cost of each rectangle at the
//     grid's sensitivity ("bound"; no inference credit is taken).
//
// All predictions describe the un-rounded, non-clamped mechanism;
// rounding to non-negative integers adds at most 1/4 per cell.

// RectQuery is one weighted half-open rectangle query
// [X0, X1) x [Y0, Y1) over the workload's 2-D grid.
type RectQuery struct {
	X0, Y0, X1, Y1 int
	Weight         float64
}

// SetGrid declares the 2-D domain for rectangle queries. It must be
// called before AddRect and cannot shrink below an already-added rect.
func (w *Workload) SetGrid(width, height int) error {
	if width < 1 || height < 1 {
		return fmt.Errorf("workload: grid %dx%d must be positive", width, height)
	}
	for _, r := range w.rects {
		if r.X1 > width || r.Y1 > height {
			return fmt.Errorf("workload: grid %dx%d excludes existing rect [%d,%d)x[%d,%d)",
				width, height, r.X0, r.X1, r.Y0, r.Y1)
		}
	}
	w.gridW, w.gridH = width, height
	return nil
}

// GridWidth returns the declared grid width (0 until SetGrid).
func (w *Workload) GridWidth() int { return w.gridW }

// GridHeight returns the declared grid height (0 until SetGrid).
func (w *Workload) GridHeight() int { return w.gridH }

// AddRect appends a weighted rectangle query [x0, x1) x [y0, y1).
// SetGrid must have been called first.
func (w *Workload) AddRect(x0, y0, x1, y1 int, weight float64) error {
	if w.gridW == 0 || w.gridH == 0 {
		return fmt.Errorf("workload: SetGrid before AddRect")
	}
	if x0 < 0 || y0 < 0 || x1 > w.gridW || y1 > w.gridH || x0 >= x1 || y0 >= y1 {
		return fmt.Errorf("workload: bad rect [%d,%d)x[%d,%d) for grid %dx%d",
			x0, x1, y0, y1, w.gridW, w.gridH)
	}
	if !(weight > 0) || math.IsInf(weight, 0) {
		return fmt.Errorf("workload: weight %v must be positive and finite", weight)
	}
	w.rects = append(w.rects, RectQuery{X0: x0, Y0: y0, X1: x1, Y1: y1, Weight: weight})
	return nil
}

// Rects returns a copy of the rectangle query set.
func (w *Workload) Rects() []RectQuery {
	return append([]RectQuery(nil), w.rects...)
}

// RectLen returns the number of rectangle queries.
func (w *Workload) RectLen() int { return len(w.rects) }

// ErrorSorted returns the pre-inference noise cost of the sorted-query
// strategies (unattributed, degree_sequence): the sorted query has
// sensitivity 1 (Proposition 3), so a width-s range over the sorted
// counts costs s * 2/eps^2 before isotonic regression. This is an upper
// bound on the released estimate's error — isotonic regression projects
// onto the order cone containing the truth and is non-expansive — but
// the exact post-inference figure is data-dependent.
func (w *Workload) ErrorSorted(eps float64) float64 {
	perUnit := core.NoiseVariance(core.SensitivityS, eps)
	total := 0.0
	for _, q := range w.queries {
		total += q.Weight * float64(q.Hi-q.Lo) * perUnit
	}
	return total
}

// ErrorHierarchy returns the pre-inference noise cost of a custom
// constraint forest with the given sensitivity over the workload's
// ranges, interpreted as ranges of leaf positions: each queried leaf
// contributes one node's noise variance. Least-squares inference is an
// orthogonal projection, so the released estimate's error never exceeds
// this figure.
func (w *Workload) ErrorHierarchy(sensitivity, eps float64) (float64, error) {
	if !(sensitivity >= 1) || math.IsInf(sensitivity, 0) {
		return 0, fmt.Errorf("workload: hierarchy sensitivity %v must be >= 1 and finite", sensitivity)
	}
	perNode := core.NoiseVariance(sensitivity, eps)
	total := 0.0
	for _, q := range w.queries {
		total += q.Weight * float64(q.Hi-q.Lo) * perNode
	}
	return total, nil
}

// ErrorWavelet returns the exact expected weighted total squared error
// of the Haar-wavelet mechanism (Privelet) on this workload: a range
// answer is (hi-lo)*c0 plus, for every detail node straddling a range
// boundary, s_i * c_i with s_i the signed leaf-count difference between
// the range's overlap with the node's halves; fully-covered and disjoint
// nodes contribute s_i = 0. Coefficient i carries independent
// Lap(rho/(eps*W(i))) noise with rho = 1 + log2(n) and W(i) the node's
// leaf count, so the variance propagates in closed form. The walk visits
// only boundary-straddling nodes: O(log n) per query.
func (w *Workload) ErrorWavelet(eps float64) float64 {
	n := 1
	for n < w.n {
		n *= 2
	}
	rho := 1 + math.Log2(float64(n))
	baseVar := core.NoiseVariance(rho/float64(n), eps)
	total := 0.0
	for _, q := range w.queries {
		width := float64(q.Hi - q.Lo)
		v := width * width * baseVar
		v += waveletDetailVar(0, n, q.Lo, q.Hi, rho, eps)
		total += q.Weight * v
	}
	return total
}

// waveletDetailVar sums s_i^2 * Var(c_i) over the detail nodes of the
// subtree covering [a, a+size) that straddle a boundary of [lo, hi).
func waveletDetailVar(a, size, lo, hi int, rho, eps float64) float64 {
	oLo, oHi := max(lo, a), min(hi, a+size)
	if oLo >= oHi {
		return 0 // disjoint: this node and all descendants have s = 0
	}
	if oLo == a && oHi == a+size {
		return 0 // fully covered: halves cancel here and below
	}
	if size == 1 {
		return 0 // leaves carry no detail coefficient
	}
	half := size / 2
	mid := a + half
	left := max(0, min(hi, mid)-max(lo, a))
	right := max(0, min(hi, a+size)-max(lo, mid))
	s := float64(left - right)
	v := s * s * core.NoiseVariance(rho/float64(size), eps)
	return v + waveletDetailVar(a, half, lo, hi, rho, eps) +
		waveletDetailVar(mid, half, lo, hi, rho, eps)
}

// ErrorUniversal2D returns the quadtree noise cost of answering the
// workload's rectangle queries from a 2-D universal histogram: each
// rectangle decomposes into its minimal set of quadtree nodes, and every
// node carries Lap(height/eps) noise. Constrained inference can only
// improve on this, so the prediction is an upper bound. SetGrid and at
// least one AddRect are required.
func (w *Workload) ErrorUniversal2D(eps float64) (float64, error) {
	if w.gridW == 0 || w.gridH == 0 {
		return 0, fmt.Errorf("workload: no grid declared (SetGrid)")
	}
	if len(w.rects) == 0 {
		return 0, fmt.Errorf("workload: no rectangle queries")
	}
	grid, err := histo2d.New(w.gridW, w.gridH)
	if err != nil {
		return 0, err
	}
	perNode := core.NoiseVariance(grid.Sensitivity(), eps)
	side := grid.Side()
	total := 0.0
	for _, q := range w.rects {
		nodes := quadDecomposeCount(0, 0, side, q.X0, q.Y0, q.X1, q.Y1)
		total += q.Weight * float64(nodes) * perNode
	}
	return total, nil
}

// quadDecomposeCount counts the minimal quadtree nodes whose disjoint
// union is the rectangle's overlap with the square [x, x+size)^2 rooted
// at (x, y).
func quadDecomposeCount(x, y, size, x0, y0, x1, y1 int) int {
	ox0, oy0 := max(x0, x), max(y0, y)
	ox1, oy1 := min(x1, x+size), min(y1, y+size)
	if ox0 >= ox1 || oy0 >= oy1 {
		return 0
	}
	if ox0 == x && oy0 == y && ox1 == x+size && oy1 == y+size {
		return 1
	}
	half := size / 2
	return quadDecomposeCount(x, y, half, x0, y0, x1, y1) +
		quadDecomposeCount(x+half, y, half, x0, y0, x1, y1) +
		quadDecomposeCount(x, y+half, half, x0, y0, x1, y1) +
		quadDecomposeCount(x+half, y+half, half, x0, y0, x1, y1)
}

// PredictOptions controls which strategies PredictAll evaluates.
type PredictOptions struct {
	// Branchings lists the universal-tree fan-outs to evaluate
	// (default {2}).
	Branchings []int
	// HierarchySensitivity, when >= 1, enables the custom-hierarchy
	// strategy at that forest sensitivity.
	HierarchySensitivity float64
}

// canonicalOrder breaks exact ties deterministically: the serving
// strategies in their wire order, then the estimator-level names.
var canonicalOrder = map[Strategy]int{
	StrategyUniversal:      0,
	StrategyLaplace:        1,
	StrategyUnattributed:   2,
	StrategyWavelet:        3,
	StrategyDegreeSequence: 4,
	StrategyHierarchy:      5,
	StrategyUniversal2D:    6,
	StrategyHBar:           7,
	StrategyHTilde:         8,
}

// Rank sorts predictions in place: ascending predicted error, exact
// before bound at equal error (a bound may be loose, an exact figure is
// not), then canonical strategy order, then branching.
func Rank(preds []Prediction) {
	sort.SliceStable(preds, func(i, j int) bool {
		a, b := preds[i], preds[j]
		if a.Error != b.Error {
			return a.Error < b.Error
		}
		if a.Confidence != b.Confidence {
			return a.Confidence == ConfidenceExact
		}
		if canonicalOrder[a.Strategy] != canonicalOrder[b.Strategy] {
			return canonicalOrder[a.Strategy] < canonicalOrder[b.Strategy]
		}
		return a.Branching < b.Branching
	})
}

// PredictAll evaluates every serving strategy the workload has inputs
// for — the six 1-D strategies when range queries are present (hierarchy
// only when opt.HierarchySensitivity is set), universal2d when a grid
// and rectangle queries are present — and returns the predictions ranked
// best-first. At least one strategy must be evaluable.
func (w *Workload) PredictAll(eps float64, opt PredictOptions) ([]Prediction, error) {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("workload: epsilon must be positive and finite, got %v", eps)
	}
	if len(w.queries) == 0 && len(w.rects) == 0 {
		return nil, fmt.Errorf("workload: empty workload")
	}
	var preds []Prediction
	if len(w.queries) > 0 {
		branchings := opt.Branchings
		if len(branchings) == 0 {
			branchings = []int{2}
		}
		for _, k := range branchings {
			e, err := w.ErrorHBar(k, eps)
			if err != nil {
				return nil, err
			}
			preds = append(preds, Prediction{Strategy: StrategyUniversal, Branching: k, Error: e, Confidence: ConfidenceExact})
		}
		preds = append(preds,
			Prediction{Strategy: StrategyLaplace, Error: w.ErrorLaplace(eps), Confidence: ConfidenceExact},
			Prediction{Strategy: StrategyWavelet, Error: w.ErrorWavelet(eps), Confidence: ConfidenceExact},
			Prediction{Strategy: StrategyUnattributed, Error: w.ErrorSorted(eps), Confidence: ConfidenceBound},
			Prediction{Strategy: StrategyDegreeSequence, Error: w.ErrorSorted(eps), Confidence: ConfidenceBound},
		)
		if opt.HierarchySensitivity != 0 {
			e, err := w.ErrorHierarchy(opt.HierarchySensitivity, eps)
			if err != nil {
				return nil, err
			}
			preds = append(preds, Prediction{Strategy: StrategyHierarchy, Error: e, Confidence: ConfidenceBound})
		}
	}
	if len(w.rects) > 0 {
		e, err := w.ErrorUniversal2D(eps)
		if err != nil {
			return nil, err
		}
		preds = append(preds, Prediction{Strategy: StrategyUniversal2D, Error: e, Confidence: ConfidenceBound})
	}
	Rank(preds)
	return preds, nil
}
