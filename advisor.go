package dphist

import (
	"github.com/dphist/dphist/internal/workload"
)

// Workload is a weighted set of queries an analyst plans to ask — range
// queries over a 1-D domain, optionally rectangle queries over a 2-D
// grid. Before spending any privacy budget, the workload can predict
// each strategy's expected error analytically and recommend the best
// release — the paper's Section 7 direction of choosing strategies per
// workload.
type Workload struct {
	inner *workload.Workload
}

// NewWorkload returns an empty workload over the domain [0, domain).
func NewWorkload(domain int) (*Workload, error) {
	w, err := workload.New(domain)
	if err != nil {
		return nil, err
	}
	return &Workload{inner: w}, nil
}

// Add appends a weighted half-open range query [lo, hi).
func (w *Workload) Add(lo, hi int, weight float64) error {
	return w.inner.Add(lo, hi, weight)
}

// Len returns the number of range queries.
func (w *Workload) Len() int { return w.inner.Len() }

// SetGrid declares a 2-D grid so rectangle queries can be added and the
// universal2d strategy enters the comparison.
func (w *Workload) SetGrid(width, height int) error {
	return w.inner.SetGrid(width, height)
}

// AddRect appends a weighted half-open rectangle query
// [x0, x1) x [y0, y1) over the declared grid.
func (w *Workload) AddRect(x0, y0, x1, y1 int, weight float64) error {
	return w.inner.AddRect(x0, y0, x1, y1, weight)
}

// RectLen returns the number of rectangle queries.
func (w *Workload) RectLen() int { return w.inner.RectLen() }

// PredictLaplace returns the expected weighted total squared error of
// answering the workload from a LaplaceHistogram at the given epsilon.
func (w *Workload) PredictLaplace(eps float64) float64 {
	return w.inner.ErrorLaplace(eps)
}

// PredictHierarchical returns the expected weighted total squared error
// of answering the workload from a UniversalHistogram with branching k:
// the noisy-tree cost when inferred is false, the exact post-inference
// cost when true. Both are exact on every domain; the post-inference
// cost takes O(k log n) per query.
func (w *Workload) PredictHierarchical(k int, eps float64, inferred bool) (float64, error) {
	if inferred {
		return w.inner.ErrorHBar(k, eps)
	}
	return w.inner.ErrorHTilde(k, eps)
}

// Prediction is one strategy's predicted weighted total squared error
// for a workload.
type Prediction struct {
	// Strategy is the serving strategy name ("universal", "laplace",
	// "unattributed", "wavelet", "degree_sequence", "hierarchy",
	// "universal2d").
	Strategy string `json:"strategy"`
	// Branching is the tree fan-out for hierarchical strategies
	// (0 otherwise).
	Branching int `json:"branching,omitempty"`
	// PredictedError is the expected weighted total squared error.
	PredictedError float64 `json:"predicted_error"`
	// Confidence is "exact" for a closed-form expectation of the linear
	// mechanism and "bound" for a one-sided upper bound that
	// post-processing can only improve on.
	Confidence string `json:"confidence"`
}

// Recommendation is the advisor's verdict: the predicted-best strategy
// plus the full ranked field it beat.
type Recommendation struct {
	// Strategy is the winning serving strategy name.
	Strategy string
	// Branching is the tree fan-out for hierarchical strategies
	// (0 otherwise).
	Branching int
	// PredictedError is the winner's expected weighted total squared
	// error.
	PredictedError float64
	// Confidence is the winner's prediction confidence ("exact" or
	// "bound").
	Confidence string
	// Alternatives is the flat ranked list of every evaluated strategy,
	// winner first. It never nests further.
	Alternatives []Prediction
}

// Recommend evaluates every strategy the workload has inputs for — the
// flat, hierarchical (at each candidate branching factor, default 2),
// wavelet, and sorted strategies for range queries, universal2d when a
// grid and rectangles are declared — and returns the predicted-best
// release strategy for this workload at this epsilon. The hierarchical
// prediction is the exact post-inference error on every domain.
func (w *Workload) Recommend(eps float64, branchings ...int) (Recommendation, error) {
	preds, err := w.inner.PredictAll(eps, workload.PredictOptions{Branchings: branchings})
	if err != nil {
		return Recommendation{}, err
	}
	return recommendationFrom(preds), nil
}

// recommendationFrom converts a ranked internal prediction list (never
// empty) into the public shape.
func recommendationFrom(preds []workload.Prediction) Recommendation {
	rec := Recommendation{
		Strategy:       string(preds[0].Strategy),
		Branching:      preds[0].Branching,
		PredictedError: preds[0].Error,
		Confidence:     string(preds[0].Confidence),
		Alternatives:   make([]Prediction, 0, len(preds)),
	}
	for _, p := range preds {
		rec.Alternatives = append(rec.Alternatives, Prediction{
			Strategy:       string(p.Strategy),
			Branching:      p.Branching,
			PredictedError: p.Error,
			Confidence:     string(p.Confidence),
		})
	}
	return rec
}
