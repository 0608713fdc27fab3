package dphist

// JSON serialization for releases. A data owner computes a release once
// and ships it to analysts (Appendix B: "the server can implement the
// post-processing step"); the wire form carries everything needed to
// answer queries offline, and decoding validates shape invariants so a
// corrupted payload fails loudly rather than answering garbage. Every
// decoder recompiles the release's query plan (internal/plan) from the
// decoded vectors — fast paths are re-derived, never trusted from the
// wire — so a decoded release serves batches exactly like the original.
//
// The wire format is versioned and self-describing: every payload
// carries {"version": 2, "strategy": "...", "epsilon": ...} alongside
// the strategy-specific fields, so DecodeRelease can reconstruct the
// right concrete type without out-of-band knowledge.
//
// Encoding has one implementation, AppendRelease: every MarshalJSON
// calls it, and it appends the same bytes json.Marshal of the matching
// *Wire struct would, using the internal/jsonw primitives. The server
// writes those bytes unchanged into the HTTP reply, the journal put
// record and the snapshot, and never scans them again. The *Wire
// structs remain the decoding path and the byte-for-byte oracle the
// encoder is tested against.

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/histo2d"
	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/jsonw"
	"github.com/dphist/dphist/internal/plan"
)

// WireVersion is the current release wire-format version. Version 1 (the
// pre-interface format without strategy tags or epsilon) is no longer
// accepted.
const WireVersion = 2

// releaseCodecs maps each strategy to a factory for its zero concrete
// release, used by DecodeRelease to dispatch on the wire strategy tag.
// Adding a strategy means adding one entry here.
var releaseCodecs = map[Strategy]func() Release{
	StrategyUniversal:      func() Release { return new(UniversalRelease) },
	StrategyLaplace:        func() Release { return new(LaplaceRelease) },
	StrategyUnattributed:   func() Release { return new(UnattributedRelease) },
	StrategyWavelet:        func() Release { return new(WaveletRelease) },
	StrategyDegreeSequence: func() Release { return new(DegreeSequenceRelease) },
	StrategyHierarchy:      func() Release { return new(HierarchyReleaseResult) },
	StrategyUniversal2D:    func() Release { return new(Universal2DRelease) },
}

// DecodeRelease decodes any release payload produced by a Release's
// MarshalJSON, returning the matching concrete type behind the Release
// interface.
func DecodeRelease(data []byte) (Release, error) {
	var header struct {
		Version  int    `json:"version"`
		Strategy string `json:"strategy"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return nil, fmt.Errorf("dphist: decode release: %w", err)
	}
	if header.Version != WireVersion {
		return nil, fmt.Errorf("dphist: unsupported release version %d", header.Version)
	}
	strategy, err := ParseStrategy(header.Strategy)
	if err != nil {
		return nil, fmt.Errorf("dphist: decode release: %w", err)
	}
	factory, ok := releaseCodecs[strategy]
	if !ok {
		return nil, fmt.Errorf("dphist: no codec for strategy %v", strategy)
	}
	rel := factory()
	if err := json.Unmarshal(data, rel); err != nil {
		return nil, err
	}
	return rel, nil
}

// AppendRelease appends the v2 wire encoding of r to dst and returns the
// extended buffer. Its output is byte-identical to json.Marshal(r): the
// seven release types are formatted directly, in one pass, into a buffer
// presized from their vector lengths; any other Release implementation
// goes through json.Marshal, which validates its output. On error the
// returned buffer's contents are unspecified.
func AppendRelease(dst []byte, r Release) ([]byte, error) {
	// Exact concrete types only, as in releasePlan: a wrapper embedding a
	// release may override MarshalJSON, and json.Marshal honours that.
	switch rel := r.(type) {
	case *UniversalRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyUniversal, rel.eps, rel.auto,
				intField(`"k":`, rel.tree.K()),
				intField(`"domain":`, rel.tree.Domain()),
				floatsField(`"noisy":`, rel.noisy),
				floatsField(`"inferred":`, rel.inferred),
				floatsField(`"post":`, rel.post))
		}
	case *Universal2DRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyUniversal2D, rel.eps, rel.auto,
				intField(`"width":`, rel.grid.Width()),
				intField(`"height":`, rel.grid.Height()),
				floatsField(`"noisy":`, rel.noisy),
				floatsField(`"inferred":`, rel.inferred),
				floatsField(`"post":`, rel.post))
		}
	case *UnattributedRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyUnattributed, rel.eps, rel.auto,
				floatsField(`"noisy":`, rel.Noisy),
				floatsField(`"inferred":`, rel.Inferred),
				floatsField(`"counts":`, rel.counts))
		}
	case *LaplaceRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyLaplace, rel.eps, rel.auto,
				floatsField(`"noisy":`, rel.Noisy),
				floatsField(`"counts":`, rel.counts))
		}
	case *WaveletRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyWavelet, rel.eps, rel.auto,
				floatsField(`"counts":`, rel.counts))
		}
	case *DegreeSequenceRelease:
		if rel != nil {
			return appendReleaseWire(dst, StrategyDegreeSequence, rel.eps, rel.auto,
				floatsField(`"noisy":`, rel.Noisy),
				floatsField(`"inferred":`, rel.Inferred),
				floatsField(`"counts":`, rel.counts))
		}
	case *HierarchyReleaseResult:
		if rel != nil {
			return appendReleaseWire(dst, StrategyHierarchy, rel.eps, rel.auto,
				intsField(`"parent":`, rel.parent),
				floatsField(`"noisy":`, rel.Noisy),
				floatsField(`"inferred":`, rel.Inferred))
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// wireField is one strategy-specific member of a release's wire object:
// an integer, an integer vector or a float vector, keyed by its JSON
// name with the quotes and colon included.
type wireField struct {
	key    string
	num    int
	ints   []int
	floats []float64
	kind   uint8
}

const (
	wireInt uint8 = iota
	wireInts
	wireFloats
)

func intField(key string, n int) wireField { return wireField{key: key, num: n, kind: wireInt} }

func intsField(key string, v []int) wireField { return wireField{key: key, ints: v, kind: wireInts} }

func floatsField(key string, v []float64) wireField {
	return wireField{key: key, floats: v, kind: wireFloats}
}

// appendReleaseWire appends one release's wire object: the shared header
// (version, strategy, epsilon, and the auto decision when present), then
// fields in the order the strategy's *Wire struct declares them. The
// buffer grows once up front, by 20 bytes per vector element: a noisy
// count's shortest form plus its comma rarely exceeds that, and a
// rounded count takes a few bytes, so one allocation usually covers the
// whole object without reserving the 25-byte worst case. A growth is at
// least the buffer's own capacity, so a caller appending many releases
// into one buffer, as a snapshot does, copies in doubling steps rather
// than append's 1.25x ones.
func appendReleaseWire(dst []byte, strategy Strategy, eps float64, auto *AutoDecision, fields ...wireField) ([]byte, error) {
	var autoJSON []byte
	if auto != nil {
		var err error
		if autoJSON, err = json.Marshal(auto); err != nil {
			return dst, err
		}
	}
	size := 96 + len(autoJSON)
	for _, f := range fields {
		size += len(f.key) + 20*(len(f.ints)+len(f.floats)) + 20
	}
	b := dst
	if cap(b)-len(b) < size {
		b = slices.Grow(b, max(size, cap(b)))
	}
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, WireVersion, 10)
	b = append(b, `,"strategy":`...)
	b = jsonw.AppendString(b, strategy.String())
	b = append(b, `,"epsilon":`...)
	b, err := jsonw.AppendFloat(b, eps)
	if err != nil {
		return b, err
	}
	if autoJSON != nil {
		b = append(b, `,"auto":`...)
		b = append(b, autoJSON...)
	}
	for _, f := range fields {
		b = append(b, ',')
		b = append(b, f.key...)
		switch f.kind {
		case wireInt:
			b = strconv.AppendInt(b, int64(f.num), 10)
		case wireInts:
			b = jsonw.AppendInts(b, f.ints)
		case wireFloats:
			if b, err = jsonw.AppendFloats(b, f.floats); err != nil {
				return b, err
			}
		}
	}
	return append(b, '}'), nil
}

// checkHeader validates the shared envelope fields of a decoded wire
// struct against the expected strategy.
func checkHeader(version int, strategy string, want Strategy, eps float64) error {
	if version != WireVersion {
		return fmt.Errorf("dphist: unsupported release version %d", version)
	}
	if strategy != want.String() {
		return fmt.Errorf("dphist: payload strategy %q is not %q", strategy, want)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("dphist: payload epsilon %v is not positive and finite", eps)
	}
	return nil
}

// universalWire is the serialized form of a UniversalRelease.
type universalWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	K        int           `json:"k"`
	Domain   int           `json:"domain"`
	Noisy    []float64     `json:"noisy"`
	Inferred []float64     `json:"inferred"`
	Post     []float64     `json:"post"`
}

// MarshalJSON encodes the release, including the raw noisy tree so
// baseline comparisons survive the round trip.
func (r *UniversalRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON, validating
// the tree shape against the payload.
func (r *UniversalRelease) UnmarshalJSON(data []byte) error {
	var w universalWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode universal release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyUniversal, w.Epsilon); err != nil {
		return err
	}
	tree, err := htree.New(w.K, w.Domain)
	if err != nil {
		return fmt.Errorf("dphist: decode universal release: %w", err)
	}
	n := tree.NumNodes()
	if len(w.Noisy) != n || len(w.Inferred) != n || len(w.Post) != n {
		return fmt.Errorf("dphist: release payload has %d/%d/%d node values, tree has %d",
			len(w.Noisy), len(w.Inferred), len(w.Post), n)
	}
	*r = *newUniversalRelease(tree, w.Noisy, w.Inferred, w.Post, w.Epsilon)
	r.auto = w.Auto
	return nil
}

// universal2DWire is the serialized form of a Universal2DRelease: the
// real domain dimensions plus the three quadtree vectors in BFS order,
// so baseline comparisons and re-derived fast paths survive the round
// trip exactly as they do for the 1-D release.
type universal2DWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Width    int           `json:"width"`
	Height   int           `json:"height"`
	Noisy    []float64     `json:"noisy"`
	Inferred []float64     `json:"inferred"`
	Post     []float64     `json:"post"`
}

// MarshalJSON encodes the release, including the raw noisy quadtree so
// baseline comparisons survive the round trip.
func (r *Universal2DRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON, rebuilding
// the quadtree shape from the dimensions and validating the payload
// against it. The summed-area fast path is re-derived, not trusted from
// the wire.
func (r *Universal2DRelease) UnmarshalJSON(data []byte) error {
	var w universal2DWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode universal2d release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyUniversal2D, w.Epsilon); err != nil {
		return err
	}
	grid, err := histo2d.New(w.Width, w.Height)
	if err != nil {
		return fmt.Errorf("dphist: decode universal2d release: %w", err)
	}
	n := grid.NumNodes()
	if len(w.Noisy) != n || len(w.Inferred) != n || len(w.Post) != n {
		return fmt.Errorf("dphist: release payload has %d/%d/%d node values, quadtree has %d",
			len(w.Noisy), len(w.Inferred), len(w.Post), n)
	}
	*r = *newUniversal2DRelease(grid, w.Noisy, w.Inferred, w.Post, w.Epsilon)
	r.auto = w.Auto
	return nil
}

// unattributedWire is the serialized form of an UnattributedRelease.
type unattributedWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Noisy    []float64     `json:"noisy"`
	Inferred []float64     `json:"inferred"`
	Counts   []float64     `json:"counts"`
}

// MarshalJSON encodes the release.
func (r *UnattributedRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON.
func (r *UnattributedRelease) UnmarshalJSON(data []byte) error {
	var w unattributedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode unattributed release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyUnattributed, w.Epsilon); err != nil {
		return err
	}
	if err := checkSortedCounts(w.Noisy, w.Inferred, w.Counts); err != nil {
		return err
	}
	*r = *newUnattributedRelease(w.Noisy, w.Inferred, w.Counts, w.Epsilon)
	r.auto = w.Auto
	return nil
}

// checkSortedCounts validates the shared shape of the sorted-query
// releases: three equal-length non-empty vectors whose published counts
// are non-decreasing.
func checkSortedCounts(noisy, inferred, counts []float64) error {
	if len(counts) == 0 {
		return fmt.Errorf("dphist: empty release payload")
	}
	if len(noisy) != len(counts) || len(inferred) != len(counts) {
		return fmt.Errorf("dphist: release payload lengths disagree: %d/%d/%d",
			len(noisy), len(inferred), len(counts))
	}
	if !sort.Float64sAreSorted(counts) {
		return fmt.Errorf("dphist: published sorted-query counts are out of order")
	}
	return nil
}

// laplaceWire is the serialized form of a LaplaceRelease.
type laplaceWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Noisy    []float64     `json:"noisy"`
	Counts   []float64     `json:"counts"`
}

// MarshalJSON encodes the release.
func (r *LaplaceRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON.
func (r *LaplaceRelease) UnmarshalJSON(data []byte) error {
	var w laplaceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode laplace release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyLaplace, w.Epsilon); err != nil {
		return err
	}
	if len(w.Counts) == 0 || len(w.Noisy) != len(w.Counts) {
		return fmt.Errorf("dphist: release payload lengths disagree: %d/%d",
			len(w.Noisy), len(w.Counts))
	}
	r.Noisy = w.Noisy
	r.counts = w.Counts
	r.plan = plan.Compile1D(w.Counts)
	r.eps = w.Epsilon
	r.auto = w.Auto
	return nil
}

// waveletWire is the serialized form of a WaveletRelease.
type waveletWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Counts   []float64     `json:"counts"`
}

// MarshalJSON encodes the release.
func (r *WaveletRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON.
func (r *WaveletRelease) UnmarshalJSON(data []byte) error {
	var w waveletWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode wavelet release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyWavelet, w.Epsilon); err != nil {
		return err
	}
	if len(w.Counts) == 0 {
		return fmt.Errorf("dphist: empty release payload")
	}
	r.counts = w.Counts
	r.plan = plan.Compile1D(w.Counts)
	r.eps = w.Epsilon
	r.auto = w.Auto
	return nil
}

// degreeSequenceWire is the serialized form of a DegreeSequenceRelease.
type degreeSequenceWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Noisy    []float64     `json:"noisy"`
	Inferred []float64     `json:"inferred"`
	Counts   []float64     `json:"counts"`
}

// MarshalJSON encodes the release.
func (r *DegreeSequenceRelease) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON.
func (r *DegreeSequenceRelease) UnmarshalJSON(data []byte) error {
	var w degreeSequenceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode degree-sequence release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyDegreeSequence, w.Epsilon); err != nil {
		return err
	}
	if err := checkSortedCounts(w.Noisy, w.Inferred, w.Counts); err != nil {
		return err
	}
	*r = *newDegreeSequenceRelease(w.Noisy, w.Inferred, w.Counts, w.Epsilon)
	r.auto = w.Auto
	return nil
}

// hierarchyWire is the serialized form of a HierarchyReleaseResult; the
// parent pointers carry the constraint forest so leaf extraction and
// consistency checks survive the round trip.
type hierarchyWire struct {
	Version  int           `json:"version"`
	Strategy string        `json:"strategy"`
	Epsilon  float64       `json:"epsilon"`
	Auto     *AutoDecision `json:"auto,omitempty"`
	Parent   []int         `json:"parent"`
	Noisy    []float64     `json:"noisy"`
	Inferred []float64     `json:"inferred"`
}

// MarshalJSON encodes the release.
func (r *HierarchyReleaseResult) MarshalJSON() ([]byte, error) { return AppendRelease(nil, r) }

// UnmarshalJSON decodes a release produced by MarshalJSON, rebuilding
// and revalidating the constraint forest from the parent pointers.
func (r *HierarchyReleaseResult) UnmarshalJSON(data []byte) error {
	var w hierarchyWire
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("dphist: decode hierarchy release: %w", err)
	}
	if err := checkHeader(w.Version, w.Strategy, StrategyHierarchy, w.Epsilon); err != nil {
		return err
	}
	h, err := core.NewHierarchy(w.Parent)
	if err != nil {
		return fmt.Errorf("dphist: decode hierarchy release: %w", err)
	}
	if len(w.Noisy) != h.Len() || len(w.Inferred) != h.Len() {
		return fmt.Errorf("dphist: release payload has %d/%d answers for %d queries",
			len(w.Noisy), len(w.Inferred), h.Len())
	}
	*r = *newHierarchyReleaseResult(h, w.Noisy, w.Inferred, w.Epsilon)
	r.auto = w.Auto
	return nil
}
