// Package htree provides the k-ary interval tree underlying the paper's
// hierarchical query sequence H (Hay et al., Section 4). Each node of the
// tree is a range-count query; the root covers the whole domain and every
// node has k children covering equal subranges. Nodes are stored in a
// flat slice in breadth-first order, which is exactly the order in which
// the paper arranges the query sequence H.
//
// The domain is padded up to the next power of k so that the tree is
// complete; padding leaves always hold zero counts and sit to the right
// of the real domain.
package htree

import (
	"fmt"
)

// Tree describes the shape of a complete k-ary interval tree. It carries
// no counts itself; count vectors are plain []float64 slices of length
// NumNodes laid out in BFS order, so several noisy versions of the same
// tree can share one shape.
type Tree struct {
	k      int // branching factor, >= 2 (or exactly 1 leaf when height 1)
	height int // number of levels, counted in nodes (paper's ell); >= 1
	domain int // number of real (unpadded) unit-length intervals
	leaves int // number of leaf nodes, k^(height-1)
	nodes  int // total number of nodes, (k^height - 1)/(k - 1)
}

// New returns the tree with branching factor k whose leaves cover a
// domain of the given size. The leaf count is the smallest power of k
// that is at least domain. New returns an error if k < 2 or domain < 1.
func New(k, domain int) (*Tree, error) {
	if k < 2 {
		return nil, fmt.Errorf("htree: branching factor %d < 2", k)
	}
	if domain < 1 {
		return nil, fmt.Errorf("htree: domain size %d < 1", domain)
	}
	height := 1
	leaves := 1
	for leaves < domain {
		if leaves > (1<<62)/k {
			return nil, fmt.Errorf("htree: domain %d too large for k=%d", domain, k)
		}
		leaves *= k
		height++
	}
	nodes := 0
	width := 1
	for h := 0; h < height; h++ {
		nodes += width
		width *= k
	}
	return &Tree{k: k, height: height, domain: domain, leaves: leaves, nodes: nodes}, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(k, domain int) *Tree {
	t, err := New(k, domain)
	if err != nil {
		panic(err)
	}
	return t
}

// K returns the branching factor.
func (t *Tree) K() int { return t.k }

// Height returns the number of levels counted in nodes (the paper's ell):
// a root-only tree has height 1, the Fig. 4 example has height 3.
func (t *Tree) Height() int { return t.height }

// Domain returns the size of the real (unpadded) domain.
func (t *Tree) Domain() int { return t.domain }

// NumLeaves returns the number of leaves including padding.
func (t *Tree) NumLeaves() int { return t.leaves }

// NumNodes returns the total number of nodes in the tree.
func (t *Tree) NumNodes() int { return t.nodes }

// LeafStart returns the BFS index of the leftmost leaf.
func (t *Tree) LeafStart() int { return t.nodes - t.leaves }

// Root returns the BFS index of the root (always 0).
func (t *Tree) Root() int { return 0 }

// IsLeaf reports whether node v is a leaf.
func (t *Tree) IsLeaf(v int) bool { return v >= t.LeafStart() }

// Parent returns the BFS index of v's parent. It panics on the root.
func (t *Tree) Parent(v int) int {
	if v == 0 {
		panic("htree: root has no parent")
	}
	return (v - 1) / t.k
}

// FirstChild returns the BFS index of v's leftmost child. It panics on
// leaves.
func (t *Tree) FirstChild(v int) int {
	if t.IsLeaf(v) {
		panic("htree: leaf has no children")
	}
	return v*t.k + 1
}

// Children returns the BFS index range [lo, hi) of v's children.
func (t *Tree) Children(v int) (lo, hi int) {
	lo = t.FirstChild(v)
	return lo, lo + t.k
}

// Depth returns the number of edges from the root to v.
func (t *Tree) Depth(v int) int {
	d := 0
	for v > 0 {
		v = (v - 1) / t.k
		d++
	}
	return d
}

// HeightOf returns the paper's height of node v: leaves have height 1 and
// the root has height Height().
func (t *Tree) HeightOf(v int) int { return t.height - t.Depth(v) }

// LevelStart returns the BFS index of the first node at the given depth
// (depth 0 is the root).
func (t *Tree) LevelStart(depth int) int {
	// (k^depth - 1)/(k-1) without floating point.
	start := 0
	width := 1
	for d := 0; d < depth; d++ {
		start += width
		width *= t.k
	}
	return start
}

// LevelWidth returns the number of nodes at the given depth.
func (t *Tree) LevelWidth(depth int) int {
	width := 1
	for d := 0; d < depth; d++ {
		width *= t.k
	}
	return width
}

// SubtreeSize returns the number of leaves under node v.
func (t *Tree) SubtreeSize(v int) int {
	return t.leaves / t.LevelWidth(t.Depth(v))
}

// Interval returns the half-open leaf interval [lo, hi) covered by node
// v, in leaf coordinates (0-based unit-length positions, padding
// included).
func (t *Tree) Interval(v int) (lo, hi int) {
	depth := t.Depth(v)
	offset := v - t.LevelStart(depth)
	size := t.leaves / t.LevelWidth(depth)
	return offset * size, (offset + 1) * size
}

// LeafIndex returns the BFS index of the leaf covering unit position i.
func (t *Tree) LeafIndex(i int) int {
	if i < 0 || i >= t.leaves {
		panic(fmt.Sprintf("htree: leaf position %d out of range [0,%d)", i, t.leaves))
	}
	return t.LeafStart() + i
}

// FromLeaves builds a full BFS count vector from unit-length counts: the
// real domain counts come first, padding leaves are zero, and every
// internal node is the sum of its children. This is the true answer H(I)
// for the hierarchical query. It panics if len(unit) exceeds the leaf
// capacity.
func (t *Tree) FromLeaves(unit []float64) []float64 {
	if len(unit) > t.leaves {
		panic(fmt.Sprintf("htree: %d unit counts exceed %d leaves", len(unit), t.leaves))
	}
	counts := make([]float64, t.nodes)
	copy(counts[t.LeafStart():], unit)
	for v := t.LeafStart() - 1; v >= 0; v-- {
		lo, hi := t.Children(v)
		sum := 0.0
		for c := lo; c < hi; c++ {
			sum += counts[c]
		}
		counts[v] = sum
	}
	return counts
}

// Leaves returns the leaf portion of a BFS count vector truncated to the
// real domain (padding removed). The result aliases counts.
func (t *Tree) Leaves(counts []float64) []float64 {
	t.checkLen(counts)
	return counts[t.LeafStart() : t.LeafStart()+t.domain]
}

// IsConsistent reports whether every internal node equals the sum of its
// children up to tol.
func (t *Tree) IsConsistent(counts []float64, tol float64) bool {
	t.checkLen(counts)
	for v := 0; v < t.LeafStart(); v++ {
		lo, hi := t.Children(v)
		sum := 0.0
		for c := lo; c < hi; c++ {
			sum += counts[c]
		}
		if diff := counts[v] - sum; diff > tol || diff < -tol {
			return false
		}
	}
	return true
}

// Decompose returns the minimal set of node indices whose disjoint
// intervals union to the half-open range [lo, hi) in leaf coordinates.
// This is the paper's "fewest sub-intervals" strategy for answering a
// range query from the noisy tree; at most 2(k-1) nodes are used per
// level. It panics if the range is empty or out of bounds.
func (t *Tree) Decompose(lo, hi int) []int {
	if lo < 0 || hi > t.leaves || lo >= hi {
		panic(fmt.Sprintf("htree: bad range [%d,%d) for %d leaves", lo, hi, t.leaves))
	}
	var out []int
	t.decompose(0, lo, hi, &out)
	return out
}

func (t *Tree) decompose(v, lo, hi int, out *[]int) {
	nlo, nhi := t.Interval(v)
	if lo <= nlo && nhi <= hi {
		*out = append(*out, v)
		return
	}
	if t.IsLeaf(v) {
		// Unit-length leaf partially covered cannot happen for integer
		// ranges; reaching here means the range excludes this leaf.
		return
	}
	clo, chi := t.Children(v)
	for c := clo; c < chi; c++ {
		ilo, ihi := t.Interval(c)
		if ihi <= lo || ilo >= hi {
			continue
		}
		t.decompose(c, max(ilo, lo), min(ihi, hi), out)
	}
}

// DecomposeCount returns len(Decompose(lo, hi)) without building the
// node list: it counts the nodes RangeSum's bottom-up walk visits, in
// O(k log n) time and zero allocations. It panics where Decompose does.
func (t *Tree) DecomposeCount(lo, hi int) int {
	if lo < 0 || hi > t.leaves || lo >= hi {
		panic(fmt.Sprintf("htree: bad range [%d,%d) for %d leaves", lo, hi, t.leaves))
	}
	n := 0
	for l, r := lo, hi; l < r; l, r = l/t.k, r/t.k {
		for ; l%t.k != 0 && l < r; l++ {
			n++
		}
		for ; r%t.k != 0 && l < r; r-- {
			n++
		}
	}
	return n
}

// RangeSum answers the range count [lo, hi) from a BFS count vector by
// summing the same minimal subtree decomposition Decompose returns, but
// iteratively and without allocating: it walks the tree bottom-up,
// peeling off maximal nodes at both ends of the range until the
// endpoints align with parent boundaries. Per level at most 2(k-1)
// nodes are touched, so a query costs O(k log n) time and zero bytes —
// the serving hot path. The empty range lo == hi sums to zero; it
// panics on a malformed range.
func (t *Tree) RangeSum(counts []float64, lo, hi int) float64 {
	t.checkLen(counts)
	if lo < 0 || hi > t.leaves || lo > hi {
		panic(fmt.Sprintf("htree: bad range [%d,%d) for %d leaves", lo, hi, t.leaves))
	}
	// l and r index nodes within the current level; start is the BFS
	// index of the level's first node and width its node count.
	sum := 0.0
	l, r := lo, hi
	start := t.LeafStart()
	width := t.leaves
	for l < r {
		// A node whose level offset is not a multiple of k does not
		// start (or end) a parent block, so it cannot be covered by any
		// ancestor: emit it now. Everything left aligned moves up.
		for l%t.k != 0 && l < r {
			sum += counts[start+l]
			l++
		}
		for r%t.k != 0 && l < r {
			r--
			sum += counts[start+r]
		}
		l /= t.k
		r /= t.k
		width /= t.k
		start -= width
	}
	return sum
}

// LevelPrefixSums compiles a BFS count vector into one running-sum table
// per level, leaf level first: out[j] has LevelWidth(d)+1 entries for
// depth d = Height()-1-j, and out[j][i+1]-out[j][i] is the value of the
// i'th node at that depth. Any contiguous run of same-level nodes then
// sums in two lookups, which is what the plan engine's tree-offset mode
// builds its branch-free RangeSum walk on.
func (t *Tree) LevelPrefixSums(counts []float64) [][]float64 {
	t.checkLen(counts)
	out := make([][]float64, t.height)
	for j := 0; j < t.height; j++ {
		depth := t.height - 1 - j
		start := t.LevelStart(depth)
		width := t.LevelWidth(depth)
		row := make([]float64, width+1)
		for i := 0; i < width; i++ {
			row[i+1] = row[i] + counts[start+i]
		}
		out[j] = row
	}
	return out
}

func (t *Tree) checkLen(counts []float64) {
	if len(counts) != t.nodes {
		panic(fmt.Sprintf("htree: count vector has %d entries, tree has %d nodes", len(counts), t.nodes))
	}
}
