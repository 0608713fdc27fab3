package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/linalg"
)

// SensitivityH returns the L1 sensitivity of the hierarchical query H on
// the given tree: the height ell, since one record changes exactly the
// counts on the leaf-to-root path (Proposition 4).
func SensitivityH(t *htree.Tree) float64 {
	return float64(t.Height())
}

// ReleaseTree answers the hierarchical query sequence H under
// eps-differential privacy: h~ = H(I) + Lap(ell/eps)^m, where m is the
// number of nodes (Propositions 1 and 4). unit holds the true unit-length
// counts of the real domain; padding leaves count zero.
func ReleaseTree(t *htree.Tree, unit []float64, eps float64, src *rand.Rand) []float64 {
	return Perturb(t.FromLeaves(unit), SensitivityH(t), eps, src)
}

// InferTree computes H-bar, the minimum-L2 solution satisfying the
// parent-equals-sum-of-children constraints gammaH given the noisy tree
// h~ (Theorem 3). Two linear passes:
//
//  1. Bottom-up: z[v] is the variance-optimal weighted average of the
//     node's own noisy count and the sum of its children's z-estimates,
//     with weights (k^l - k^(l-1))/(k^l - 1) and (k^(l-1) - 1)/(k^l - 1)
//     for a node of height l (leaves have height 1 and z = h~).
//  2. Top-down: h[root] = z[root]; descending, each child receives an
//     equal 1/k share of the parent's residual h[u] - sum(z[children]).
//
// The result is exactly consistent and is the ordinary-least-squares
// estimate of the leaf counts (Theorem 4 via Gauss-Markov). The input is
// not modified.
func InferTree(t *htree.Tree, htilde []float64) []float64 {
	if len(htilde) != t.NumNodes() {
		panic("core: noisy tree length does not match tree shape")
	}
	k := float64(t.K())
	z := make([]float64, t.NumNodes())
	// Bottom-up pass. BFS layout means iterating indices in reverse
	// visits every child before its parent.
	leafStart := t.LeafStart()
	copy(z[leafStart:], htilde[leafStart:])
	alpha := inferenceWeights(t)
	for v := leafStart - 1; v >= 0; v-- {
		lo, hi := t.Children(v)
		sum := 0.0
		for c := lo; c < hi; c++ {
			sum += z[c]
		}
		a := alpha[t.HeightOf(v)]
		z[v] = a*htilde[v] + (1-a)*sum
	}
	// Top-down pass.
	h := make([]float64, t.NumNodes())
	h[0] = z[0]
	for v := 0; v < leafStart; v++ {
		lo, hi := t.Children(v)
		sum := 0.0
		for c := lo; c < hi; c++ {
			sum += z[c]
		}
		share := (h[v] - sum) / k
		for c := lo; c < hi; c++ {
			h[c] = z[c] + share
		}
	}
	return h
}

// inferenceWeights returns InferTree's bottom-up weights indexed by the
// paper's height l: alpha_l = (k^l - k^(l-1))/(k^l - 1) is the share a
// height-l node's own noisy count gets against the sum of its children's
// estimates. Every node at one depth shares a height, so one weight per
// level suffices; entries 0 and 1 are unused.
func inferenceWeights(t *htree.Tree) []float64 {
	k := float64(t.K())
	alpha := make([]float64, t.Height()+1)
	for l := 2; l <= t.Height(); l++ {
		kl := math.Pow(k, float64(l))
		klm1 := math.Pow(k, float64(l-1))
		alpha[l] = (kl - klm1) / (kl - 1)
	}
	return alpha
}

// RangeVariance computes the variance of H-bar's answer to a range in
// units of the per-node noise variance: c^T (A^T A)^{-1} c for the
// range's leaf indicator c, with A the tree's design matrix
// (TreeDesignMatrix). Times 2*(ell/eps)^2 it is the range's expected
// squared error after inference (Theorem 4 via Gauss-Markov).
//
// It runs InferTree's two passes on the input y~ that is c on the leaf
// level and zero elsewhere. Then A^T y~ = c, so the inferred leaves are
// (A^T A)^{-1} c and their sum over the range is the quadratic form.
// Only the at most two nodes per level that straddle an endpoint are
// visited, because the passes are known in closed form everywhere else:
//
//   - a subtree disjoint from the range has z = 0 and no range leaves;
//   - a fully covered subtree of height l has z = F_l, with F_1 = 1 and
//     F_l = (1 - alpha_l) * k * F_(l-1), and its range leaves sum to its
//     root's final estimate (the result is consistent);
//   - the top-down pass's sum over a subtree's range leaves is affine in
//     the subtree root's final estimate h: a*h + b.
//
// One recursion returns (z, a, b) per straddling node, so Range costs
// O(k log n) and allocates nothing. A RangeVariance only reads its
// constants and is safe for concurrent use.
type RangeVariance struct {
	k, height, leaves int
	alpha             []float64 // InferTree's weights, by height
	full              []float64 // F_l: z of a fully covered subtree, by height
}

// NewRangeVariance precomputes the per-height constants of t.
func NewRangeVariance(t *htree.Tree) *RangeVariance {
	alpha := inferenceWeights(t)
	full := make([]float64, t.Height()+1)
	full[1] = 1
	for l := 2; l <= t.Height(); l++ {
		full[l] = (1 - alpha[l]) * float64(t.K()) * full[l-1]
	}
	return &RangeVariance{k: t.K(), height: t.Height(), leaves: t.NumLeaves(), alpha: alpha, full: full}
}

// Range returns c^T (A^T A)^{-1} c for the leaf indicator c of the
// half-open range [lo, hi) in leaf coordinates. It panics if the range
// is empty or out of bounds.
func (p *RangeVariance) Range(lo, hi int) float64 {
	if lo < 0 || hi > p.leaves || lo >= hi {
		panic(fmt.Sprintf("core: bad range [%d,%d) for %d leaves", lo, hi, p.leaves))
	}
	if lo == 0 && hi == p.leaves {
		return p.full[p.height]
	}
	// The top-down pass starts from h[root] = z[root].
	z, a, b := p.walk(0, p.leaves, p.height, lo, hi)
	return a*z + b
}

// walk runs both passes over the height-l subtree covering
// [start, start+size), which straddles an endpoint of [lo, hi). It
// returns the subtree root's bottom-up estimate z and the coefficients
// of the range-leaf sum a*h + b in the root's final estimate h. Each
// child c receives h_c = z_c + (h - sum z)/k, so summing the children's
// a_c*h_c + b_c gives a = sum a_c / k and
// b = sum (a_c*z_c + b_c) - (sum a_c)(sum z)/k.
func (p *RangeVariance) walk(start, size, l, lo, hi int) (z, a, b float64) {
	child := size / p.k
	var sumZ, sumA, sumB float64
	for c := start; c < start+size; c += child {
		switch {
		case c+child <= lo || c >= hi:
			// Disjoint: contributes nothing.
		case lo <= c && c+child <= hi:
			sumZ += p.full[l-1]
			sumA++
			sumB += p.full[l-1]
		default:
			cz, ca, cb := p.walk(c, child, l-1, lo, hi)
			sumZ += cz
			sumA += ca
			sumB += ca*cz + cb
		}
	}
	k := float64(p.k)
	return (1 - p.alpha[l]) * sumZ, sumA / k, sumB - sumA*sumZ/k
}

// ZeroNegativeSubtrees applies the Section 4.2 sparsity heuristic in
// place: walking from the root, any subtree whose root estimate is <= 0
// has all of its counts (the root and every descendant) set to zero. On
// sparse domains this removes most of the noise mass in empty regions.
// Returns its argument.
func ZeroNegativeSubtrees(t *htree.Tree, counts []float64) []float64 {
	if len(counts) != t.NumNodes() {
		panic("core: count vector length does not match tree shape")
	}
	zero := make([]bool, t.NumNodes())
	for v := 0; v < t.NumNodes(); v++ {
		if v > 0 && zero[t.Parent(v)] {
			zero[v] = true
		} else if counts[v] <= 0 {
			zero[v] = true
		}
		if zero[v] {
			counts[v] = 0
		}
	}
	return counts
}

// TreeRangeHTilde answers range [lo, hi) from the plain noisy tree h~ by
// summing the minimal subtree decomposition — the paper's H~ strategy.
func TreeRangeHTilde(t *htree.Tree, htilde []float64, lo, hi int) float64 {
	return t.RangeSum(htilde, lo, hi)
}

// TheoreticalErrorHTildeRange bounds the expected squared error of the H~
// strategy for a range answered from c subtrees: c * 2*(ell/eps)^2.
func TheoreticalErrorHTildeRange(t *htree.Tree, eps float64, subtrees int) float64 {
	return float64(subtrees) * NoiseVariance(SensitivityH(t), eps)
}

// TreeDesignMatrix returns the design matrix A of the linear-regression
// view of Section 4.1: row v has ones over the leaves in v's subtree, so
// H(I) = A * (leaf counts). Tests use it to verify InferTree against
// explicit ordinary least squares. Only sensible for small trees (the
// matrix is NumNodes x NumLeaves).
func TreeDesignMatrix(t *htree.Tree) *linalg.Matrix {
	a := linalg.NewMatrix(t.NumNodes(), t.NumLeaves())
	for v := 0; v < t.NumNodes(); v++ {
		lo, hi := t.Interval(v)
		for j := lo; j < hi; j++ {
			a.Set(v, j, 1)
		}
	}
	return a
}
