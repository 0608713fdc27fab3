package dphist

// Auto-strategy resolution: a Request may carry StrategyAuto plus a
// WorkloadSketch describing the queries the analyst plans to ask. Before
// any budget is charged or noise drawn, the mechanism expands the sketch
// into an advisor workload, predicts every candidate strategy's expected
// error (internal/workload), rewrites the request to the predicted-best
// concrete strategy, and stamps the decision — chosen strategy,
// predicted error, ranked alternatives — onto the minted release, where
// it survives JSON round-trips and store recovery. The paper's Section 7
// poses strategy selection as the open problem; this is its serving
// shape.

import (
	"errors"
	"fmt"
	"math"

	"github.com/dphist/dphist/internal/workload"
)

// ErrBadSketch reports a malformed or unusable workload sketch on a
// StrategyAuto request: unknown preset, queries outside the domain,
// missing inputs for the query kinds present, or a sketch too large to
// expand. Servers should map it to a client error, not an internal one.
var ErrBadSketch = errors.New("dphist: bad workload sketch")

// maxSketchQueries caps the total number of queries a sketch may expand
// to (presets included), so a hostile sketch cannot consume unbounded
// memory or CPU on the request path.
const maxSketchQueries = 4096

// WeightedRange is one weighted half-open range query [Lo, Hi) in a
// workload sketch. A zero Weight means 1.
type WeightedRange struct {
	Lo     int     `json:"lo"`
	Hi     int     `json:"hi"`
	Weight float64 `json:"weight,omitempty"`
}

// WeightedRect is one weighted half-open rectangle query
// [X0, X1) x [Y0, Y1) in a workload sketch. A zero Weight means 1.
type WeightedRect struct {
	X0     int     `json:"x0"`
	Y0     int     `json:"y0"`
	X1     int     `json:"x1"`
	Y1     int     `json:"y1"`
	Weight float64 `json:"weight,omitempty"`
}

// WorkloadSketch describes the queries an analyst plans to ask of a
// release, so StrategyAuto can pick the strategy that answers them most
// accurately. Range queries (and 1-D presets) index the request's Counts
// positions — or leaf positions for a request carrying a Hierarchy;
// rectangle queries index the request's Cells grid. A preset and
// explicit queries may be combined; the expansion is capped at 4096
// queries total.
type WorkloadSketch struct {
	// Preset names a canned 1-D query set over the Counts domain:
	//
	//   - "points": every unit count individually.
	//   - "prefixes": every prefix range [0, i) — the CDF workload.
	//   - "all_ranges": every non-empty range (quadratic; only modest
	//     domains fit under the expansion cap).
	//   - "count_of_counts": the hierarchical count-of-counts workload of
	//     Kuo et al. — every multiplicity individually plus every
	//     cumulative prefix, the query mix degree-histogram analyses ask.
	Preset string `json:"preset,omitempty"`
	// Ranges lists explicit weighted range queries.
	Ranges []WeightedRange `json:"ranges,omitempty"`
	// Rects lists explicit weighted rectangle queries over Cells.
	Rects []WeightedRect `json:"rects,omitempty"`
}

// presetSize returns the number of queries a preset expands to over a
// 1-D domain of size n, without expanding it.
func presetSize(preset string, n int) (int, error) {
	switch preset {
	case "":
		return 0, nil
	case "points", "prefixes":
		return n, nil
	case "all_ranges":
		return n * (n + 1) / 2, nil
	case "count_of_counts":
		return 2 * n, nil
	default:
		return 0, fmt.Errorf("%w: unknown preset %q", ErrBadSketch, preset)
	}
}

// expandPreset adds the preset's queries to the workload.
func expandPreset(w *workload.Workload, preset string, n int) error {
	addPoints := func() error {
		for i := 0; i < n; i++ {
			if err := w.Add(i, i+1, 1); err != nil {
				return err
			}
		}
		return nil
	}
	addPrefixes := func() error {
		for hi := 1; hi <= n; hi++ {
			if err := w.Add(0, hi, 1); err != nil {
				return err
			}
		}
		return nil
	}
	switch preset {
	case "":
		return nil
	case "points":
		return addPoints()
	case "prefixes":
		return addPrefixes()
	case "all_ranges":
		for lo := 0; lo < n; lo++ {
			for hi := lo + 1; hi <= n; hi++ {
				if err := w.Add(lo, hi, 1); err != nil {
					return err
				}
			}
		}
		return nil
	case "count_of_counts":
		if err := addPoints(); err != nil {
			return err
		}
		return addPrefixes()
	default:
		return fmt.Errorf("%w: unknown preset %q", ErrBadSketch, preset)
	}
}

// buildAutoWorkload validates a StrategyAuto request end to end —
// sketch shape, the inputs each query kind needs, and per-candidate
// input admissibility — and returns the expanded advisor workload plus
// the hierarchy sensitivity (0 when no hierarchy candidate). Everything
// a later resolution step could choke on is rejected here, so
// Request.Validate on an auto request catches the same failures
// resolution would.
func buildAutoWorkload(req Request) (*workload.Workload, float64, error) {
	sk := req.Workload
	if sk == nil {
		return nil, 0, fmt.Errorf("%w: strategy auto requires a workload sketch", ErrBadSketch)
	}
	has1D := sk.Preset != "" || len(sk.Ranges) > 0
	if !has1D && len(sk.Rects) == 0 {
		return nil, 0, fmt.Errorf("%w: sketch has no queries", ErrBadSketch)
	}
	if has1D {
		if err := validate(req.Counts, req.Epsilon); err != nil {
			return nil, 0, fmt.Errorf("range queries need counts: %w", err)
		}
	}
	if len(sk.Rects) > 0 {
		if err := validate2DCells(req.Cells, req.Epsilon); err != nil {
			return nil, 0, fmt.Errorf("rectangle queries need cells: %w", err)
		}
	}
	n := len(req.Counts)
	pn, err := presetSize(sk.Preset, n)
	if err != nil {
		return nil, 0, err
	}
	if total := pn + len(sk.Ranges) + len(sk.Rects); total > maxSketchQueries {
		return nil, 0, fmt.Errorf("%w: sketch expands to %d queries, limit %d",
			ErrBadSketch, total, maxSketchQueries)
	}
	domain := n
	if domain == 0 {
		domain = 1 // rects-only sketch; no range queries will be added
	}
	w, err := workload.New(domain)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
	}
	if has1D {
		if err := expandPreset(w, sk.Preset, n); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
		}
		for _, r := range sk.Ranges {
			if err := w.Add(r.Lo, r.Hi, weightOr1(r.Weight)); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
			}
		}
	}
	if len(sk.Rects) > 0 {
		if err := w.SetGrid(cellsWidth(req.Cells), len(req.Cells)); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
		}
		for _, r := range sk.Rects {
			if err := w.AddRect(r.X0, r.Y0, r.X1, r.Y1, weightOr1(r.Weight)); err != nil {
				return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
			}
		}
		// The quadtree itself must be constructible (the grid caps at
		// side 2^20); surface that here rather than at resolution.
		if _, err := w.ErrorUniversal2D(req.Epsilon); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrBadSketch, err)
		}
	}
	hierSens := 0.0
	if req.Hierarchy != nil && has1D {
		if err := validateHierarchyInput(req.Hierarchy, req.Counts, req.Epsilon); err != nil {
			return nil, 0, err
		}
		hierSens = req.Hierarchy.Sensitivity()
	}
	return w, hierSens, nil
}

func weightOr1(w float64) float64 {
	if w == 0 {
		return 1
	}
	return w
}

// AutoDecision records how a StrategyAuto request was resolved: the
// chosen strategy, its predicted error, and the full ranked field it
// beat. It is stamped on the minted release (see ReleaseDecision) and
// carried through the release's JSON wire form, so the provenance of an
// auto-minted release survives round-trips and durable store recovery.
type AutoDecision struct {
	// Strategy is the canonical name of the chosen concrete strategy.
	Strategy string `json:"strategy"`
	// Branching is the tree fan-out when the chosen strategy is
	// hierarchical (0 otherwise).
	Branching int `json:"branching,omitempty"`
	// PredictedError is the winner's predicted weighted total squared
	// error on the sketch.
	PredictedError float64 `json:"predicted_error"`
	// Confidence is "exact" or "bound" (see Prediction.Confidence).
	Confidence string `json:"confidence"`
	// Alternatives is the flat ranked list of every evaluated strategy,
	// winner first.
	Alternatives []Prediction `json:"alternatives"`
}

// clone returns a copy sharing no mutable state with d.
func (d *AutoDecision) clone() AutoDecision {
	out := *d
	out.Alternatives = append([]Prediction(nil), d.Alternatives...)
	return out
}

// resolveAuto resolves a StrategyAuto request into a concrete one,
// returning the rewritten request and the decision to stamp on the
// release. Concrete requests pass through untouched with a nil decision.
// Nothing is spent and no noise is drawn: resolution is pure analysis of
// the sketch, so callers charge budget against the resolved strategy.
func (m *Mechanism) resolveAuto(req Request) (Request, *AutoDecision, error) {
	if req.Strategy != StrategyAuto {
		return req, nil, nil
	}
	if !(req.Epsilon > 0) || math.IsInf(req.Epsilon, 0) {
		return Request{}, nil, fmt.Errorf("%w, got %v", errBadEpsilon, req.Epsilon)
	}
	w, hierSens, err := buildAutoWorkload(req)
	if err != nil {
		return Request{}, nil, err
	}
	preds, err := w.PredictAll(req.Epsilon, workload.PredictOptions{
		Branchings:           []int{m.branching},
		HierarchySensitivity: hierSens,
	})
	if err != nil {
		return Request{}, nil, fmt.Errorf("%w: %v", ErrBadSketch, err)
	}
	chosen, err := ParseStrategy(string(preds[0].Strategy))
	if err != nil || !chosen.Valid() {
		return Request{}, nil, fmt.Errorf("dphist: internal: advisor chose unservable strategy %q", preds[0].Strategy)
	}
	dec := &AutoDecision{
		Strategy:       string(preds[0].Strategy),
		Branching:      preds[0].Branching,
		PredictedError: preds[0].Error,
		Confidence:     string(preds[0].Confidence),
		Alternatives:   make([]Prediction, 0, len(preds)),
	}
	for _, p := range preds {
		dec.Alternatives = append(dec.Alternatives, Prediction{
			Strategy:       string(p.Strategy),
			Branching:      p.Branching,
			PredictedError: p.Error,
			Confidence:     string(p.Confidence),
		})
	}
	req.Strategy = chosen
	return req, dec, nil
}

// autoStamp is embedded in every concrete release type to carry the
// advisor decision when the release was minted through StrategyAuto. It
// contributes nothing to directly-minted releases (nil pointer, omitted
// from the wire form).
type autoStamp struct {
	auto *AutoDecision
}

// setAutoDecision stamps the decision; called once at mint or decode.
func (a *autoStamp) setAutoDecision(d *AutoDecision) { a.auto = d }

// Decision returns the auto-resolution decision stamped on the release
// and true, or a zero decision and false when the release was minted
// with an explicit strategy. The returned value shares no state with the
// release.
func (a *autoStamp) Decision() (AutoDecision, bool) {
	if a.auto == nil {
		return AutoDecision{}, false
	}
	return a.auto.clone(), true
}

// stamper lets stampDecision reach the embedded autoStamp through the
// Release interface.
type stamper interface{ setAutoDecision(*AutoDecision) }

// stampDecision attaches a resolution decision to a freshly minted
// release; a nil decision (direct mint) is a no-op.
func stampDecision(r Release, d *AutoDecision) {
	if d == nil {
		return
	}
	if s, ok := r.(stamper); ok {
		s.setAutoDecision(d)
	}
}

// ReleaseDecision returns the advisor decision stamped on a release that
// was minted through StrategyAuto, and true; for releases minted with an
// explicit strategy it returns a zero decision and false. The decision
// survives JSON round-trips (DecodeRelease) and durable store recovery.
func ReleaseDecision(r Release) (AutoDecision, bool) {
	if s, ok := r.(interface{ Decision() (AutoDecision, bool) }); ok {
		return s.Decision()
	}
	return AutoDecision{}, false
}
