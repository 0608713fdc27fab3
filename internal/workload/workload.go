// Package workload predicts the accuracy of the paper's release
// strategies on a concrete set of range queries before any privacy
// budget is spent, and recommends the best one — a step toward the
// paper's closing question of "finding optimal strategies for query
// answering under differential privacy" (Section 7).
//
// All predictions are analytic expectations over the mechanism's
// randomness; no sensitive data is touched:
//
//   - L~: a range of width s costs s * 2/eps^2.
//   - H~: a range decomposing into c subtrees costs c * 2*(ell/eps)^2.
//   - H-bar: the exact OLS variance. With A the 0/1 tree design matrix
//     and q the query's leaf indicator, the inferred answer's variance
//     is sigma^2 * q^T (A^T A)^{-1} q with sigma^2 = 2*(ell/eps)^2
//     (Gauss-Markov; Theorem 4). core.RangeVariance evaluates the
//     quadratic form with the paper's two inference passes (Theorem 3),
//     visiting only the nodes that straddle the query's endpoints, so
//     prediction is exact on every domain at O(k log n) per query.
package workload

import (
	"fmt"
	"math"

	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/htree"
)

// Query is one weighted half-open range query [Lo, Hi).
type Query struct {
	Lo, Hi int
	Weight float64
}

// Workload is a weighted set of range queries over the domain [0, n),
// optionally extended with weighted rectangle queries over a 2-D grid
// (see SetGrid and AddRect) so the universal2d strategy can be compared
// against the 1-D pipelines.
type Workload struct {
	n       int
	queries []Query

	gridW, gridH int // 0 until SetGrid
	rects        []RectQuery
}

// New returns an empty workload over a domain of the given size.
func New(domain int) (*Workload, error) {
	if domain < 1 {
		return nil, fmt.Errorf("workload: domain %d < 1", domain)
	}
	return &Workload{n: domain}, nil
}

// MustNew is New but panics on error.
func MustNew(domain int) *Workload {
	w, err := New(domain)
	if err != nil {
		panic(err)
	}
	return w
}

// Domain returns the domain size.
func (w *Workload) Domain() int { return w.n }

// Len returns the number of queries.
func (w *Workload) Len() int { return len(w.queries) }

// Add appends a weighted range query. Weight must be positive.
func (w *Workload) Add(lo, hi int, weight float64) error {
	if lo < 0 || hi > w.n || lo >= hi {
		return fmt.Errorf("workload: bad range [%d,%d) for domain %d", lo, hi, w.n)
	}
	if !(weight > 0) || math.IsInf(weight, 0) {
		return fmt.Errorf("workload: weight %v must be positive and finite", weight)
	}
	w.queries = append(w.queries, Query{Lo: lo, Hi: hi, Weight: weight})
	return nil
}

// Queries returns a copy of the query set.
func (w *Workload) Queries() []Query {
	return append([]Query(nil), w.queries...)
}

// AllRanges returns the workload of every non-empty range over [0, n)
// with unit weights — the "universal histogram" target. Quadratic in n;
// intended for analysis at modest domains.
func AllRanges(domain int) (*Workload, error) {
	w, err := New(domain)
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < domain; lo++ {
		for hi := lo + 1; hi <= domain; hi++ {
			if err := w.Add(lo, hi, 1); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// Prefixes returns the workload of all prefix ranges [0, hi) — the CDF
// workload — with unit weights.
func Prefixes(domain int) (*Workload, error) {
	w, err := New(domain)
	if err != nil {
		return nil, err
	}
	for hi := 1; hi <= domain; hi++ {
		if err := w.Add(0, hi, 1); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// ErrorLaplace returns the expected weighted total squared error of the
// flat Laplace strategy L~ at the given epsilon.
func (w *Workload) ErrorLaplace(eps float64) float64 {
	perUnit := core.NoiseVariance(core.SensitivityL, eps)
	total := 0.0
	for _, q := range w.queries {
		total += q.Weight * float64(q.Hi-q.Lo) * perUnit
	}
	return total
}

// ErrorHTilde returns the expected weighted total squared error of the
// noisy hierarchy H~ with branching factor k (no inference).
func (w *Workload) ErrorHTilde(k int, eps float64) (float64, error) {
	tree, err := htree.New(k, w.n)
	if err != nil {
		return 0, err
	}
	perNode := core.NoiseVariance(core.SensitivityH(tree), eps)
	total := 0.0
	for _, q := range w.queries {
		total += q.Weight * float64(tree.DecomposeCount(q.Lo, q.Hi)) * perNode
	}
	return total, nil
}

// ErrorHBar returns the exact expected weighted total squared error of
// the inferred hierarchy H-bar with branching factor k: the OLS variance
// of each query under homoscedastic node noise (core.RangeVariance).
func (w *Workload) ErrorHBar(k int, eps float64) (float64, error) {
	tree, err := htree.New(k, w.n)
	if err != nil {
		return 0, err
	}
	sigma2 := core.NoiseVariance(core.SensitivityH(tree), eps)
	v := core.NewRangeVariance(tree)
	total := 0.0
	for _, q := range w.queries {
		total += q.Weight * sigma2 * v.Range(q.Lo, q.Hi)
	}
	return total, nil
}

// Strategy identifies a release strategy.
type Strategy string

// The estimator-level strategies of the original advisor plus the
// serving-level strategy names used by the release pipelines. The
// estimator names htilde/hbar describe the hierarchy before and after
// inference; the serving name "universal" is the hbar pipeline.
const (
	StrategyLaplace Strategy = "laplace" // flat L~
	StrategyHTilde  Strategy = "htilde"  // hierarchy without inference
	StrategyHBar    Strategy = "hbar"    // hierarchy with inference

	StrategyUniversal      Strategy = "universal"
	StrategyUnattributed   Strategy = "unattributed"
	StrategyWavelet        Strategy = "wavelet"
	StrategyDegreeSequence Strategy = "degree_sequence"
	StrategyHierarchy      Strategy = "hierarchy"
	StrategyUniversal2D    Strategy = "universal2d"
)

// Confidence tags how a prediction relates to the mechanism's true
// expected error.
type Confidence string

const (
	// ConfidenceExact marks a closed-form expectation of the linear
	// mechanism's weighted squared error.
	ConfidenceExact Confidence = "exact"
	// ConfidenceBound marks a one-sided upper bound: the mechanism's
	// post-processing (inference, projection) can only reduce the
	// predicted figure.
	ConfidenceBound Confidence = "bound"
)

// Prediction is one strategy's predicted weighted total squared error.
type Prediction struct {
	Strategy   Strategy
	Branching  int // tree fan-out for hierarchical strategies, else 0
	Error      float64
	Confidence Confidence
}

// Recommend evaluates L~, and H~/H-bar at each candidate branching
// factor, returning all predictions (every one exact) plus the best one.
func (w *Workload) Recommend(eps float64, branchings ...int) (best Prediction, all []Prediction, err error) {
	if len(w.queries) == 0 {
		return Prediction{}, nil, fmt.Errorf("workload: empty workload")
	}
	if len(branchings) == 0 {
		branchings = []int{2}
	}
	all = append(all, Prediction{Strategy: StrategyLaplace, Error: w.ErrorLaplace(eps), Confidence: ConfidenceExact})
	for _, k := range branchings {
		ht, err := w.ErrorHTilde(k, eps)
		if err != nil {
			return Prediction{}, nil, err
		}
		all = append(all, Prediction{Strategy: StrategyHTilde, Branching: k, Error: ht, Confidence: ConfidenceExact})
		hb, err := w.ErrorHBar(k, eps)
		if err != nil {
			return Prediction{}, nil, err
		}
		all = append(all, Prediction{Strategy: StrategyHBar, Branching: k, Error: hb, Confidence: ConfidenceExact})
	}
	best = all[0]
	for _, p := range all[1:] {
		if p.Error < best.Error {
			best = p
		}
	}
	return best, all, nil
}
