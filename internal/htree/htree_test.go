package htree

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadArguments(t *testing.T) {
	if _, err := New(1, 4); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := New(2, 0); err == nil {
		t.Error("domain=0 accepted")
	}
	if _, err := New(0, 4); err == nil {
		t.Error("k=0 accepted")
	}
}

// The Fig. 4 example: binary tree over 4 addresses, height 3, 7 nodes.
func TestPaperFig4Shape(t *testing.T) {
	tr := MustNew(2, 4)
	if tr.Height() != 3 {
		t.Errorf("height = %d, want 3", tr.Height())
	}
	if tr.NumNodes() != 7 {
		t.Errorf("nodes = %d, want 7", tr.NumNodes())
	}
	if tr.NumLeaves() != 4 {
		t.Errorf("leaves = %d, want 4", tr.NumLeaves())
	}
	if tr.LeafStart() != 3 {
		t.Errorf("leaf start = %d, want 3", tr.LeafStart())
	}
}

// H(I) = <14, 2, 12, 2, 0, 10, 2> for unit counts <2, 0, 10, 2> (Fig 2b).
func TestPaperFig2HierarchicalAnswer(t *testing.T) {
	tr := MustNew(2, 4)
	got := tr.FromLeaves([]float64{2, 0, 10, 2})
	want := []float64{14, 2, 12, 2, 0, 10, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("H(I) = %v, want %v", got, want)
		}
	}
	if !tr.IsConsistent(got, 0) {
		t.Fatal("true answer reported inconsistent")
	}
}

func TestDomainPadding(t *testing.T) {
	tr := MustNew(2, 5) // pads to 8 leaves
	if tr.NumLeaves() != 8 || tr.Height() != 4 || tr.NumNodes() != 15 {
		t.Fatalf("padding wrong: leaves=%d height=%d nodes=%d",
			tr.NumLeaves(), tr.Height(), tr.NumNodes())
	}
	counts := tr.FromLeaves([]float64{1, 2, 3, 4, 5})
	if counts[0] != 15 {
		t.Errorf("root = %v, want 15", counts[0])
	}
	leaves := tr.Leaves(counts)
	if len(leaves) != 5 {
		t.Errorf("Leaves returned %d entries, want 5 (domain)", len(leaves))
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := MustNew(2, 1)
	if tr.Height() != 1 || tr.NumNodes() != 1 || !tr.IsLeaf(0) {
		t.Fatalf("degenerate tree wrong: height=%d nodes=%d", tr.Height(), tr.NumNodes())
	}
	counts := tr.FromLeaves([]float64{42})
	if counts[0] != 42 {
		t.Fatal("single leaf count lost")
	}
	if got := tr.RangeSum(counts, 0, 1); got != 42 {
		t.Fatalf("RangeSum = %v", got)
	}
}

func TestParentChildInverse(t *testing.T) {
	for _, k := range []int{2, 3, 4, 7} {
		tr := MustNew(k, 50)
		for v := 0; v < tr.LeafStart(); v++ {
			lo, hi := tr.Children(v)
			if hi-lo != k {
				t.Fatalf("k=%d node %d has %d children", k, v, hi-lo)
			}
			for c := lo; c < hi; c++ {
				if tr.Parent(c) != v {
					t.Fatalf("k=%d Parent(%d) != %d", k, c, v)
				}
			}
		}
	}
}

func TestParentPanicsOnRoot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Parent(0) did not panic")
		}
	}()
	MustNew(2, 4).Parent(0)
}

func TestDepthAndHeight(t *testing.T) {
	tr := MustNew(2, 16) // height 5
	if tr.Depth(0) != 0 || tr.HeightOf(0) != 5 {
		t.Error("root depth/height wrong")
	}
	leaf := tr.LeafIndex(7)
	if tr.Depth(leaf) != 4 || tr.HeightOf(leaf) != 1 {
		t.Error("leaf depth/height wrong")
	}
}

func TestIntervalPartitionPerLevel(t *testing.T) {
	tr := MustNew(3, 27)
	for depth := 0; depth < tr.Height(); depth++ {
		start := tr.LevelStart(depth)
		width := tr.LevelWidth(depth)
		covered := 0
		for i := 0; i < width; i++ {
			lo, hi := tr.Interval(start + i)
			if lo != covered {
				t.Fatalf("level %d node %d starts at %d, want %d", depth, i, lo, covered)
			}
			covered = hi
		}
		if covered != tr.NumLeaves() {
			t.Fatalf("level %d covers %d leaves, want %d", depth, covered, tr.NumLeaves())
		}
	}
}

func TestSubtreeSize(t *testing.T) {
	tr := MustNew(2, 8)
	if got := tr.SubtreeSize(0); got != 8 {
		t.Errorf("root subtree size %d", got)
	}
	if got := tr.SubtreeSize(tr.LeafIndex(3)); got != 1 {
		t.Errorf("leaf subtree size %d", got)
	}
	if got := tr.SubtreeSize(1); got != 4 {
		t.Errorf("depth-1 subtree size %d", got)
	}
}

func TestDecomposeFullDomainIsRoot(t *testing.T) {
	tr := MustNew(2, 16)
	nodes := tr.Decompose(0, 16)
	if len(nodes) != 1 || nodes[0] != 0 {
		t.Fatalf("full-range decomposition %v, want [0]", nodes)
	}
}

func TestDecomposeDisjointCoverMinimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 28))
	for _, k := range []int{2, 3, 4} {
		tr := MustNew(k, 81)
		for trial := 0; trial < 300; trial++ {
			lo := rng.IntN(tr.NumLeaves())
			hi := lo + 1 + rng.IntN(tr.NumLeaves()-lo)
			nodes := tr.Decompose(lo, hi)
			// Disjoint exact cover.
			covered := make([]bool, tr.NumLeaves())
			for _, v := range nodes {
				nlo, nhi := tr.Interval(v)
				for i := nlo; i < nhi; i++ {
					if covered[i] {
						t.Fatalf("k=%d overlap at leaf %d for [%d,%d)", k, i, lo, hi)
					}
					covered[i] = true
				}
			}
			for i := 0; i < tr.NumLeaves(); i++ {
				if covered[i] != (i >= lo && i < hi) {
					t.Fatalf("k=%d cover mismatch at %d for [%d,%d)", k, i, lo, hi)
				}
			}
			// Minimality: no k siblings all present (they would merge),
			// and per-level budget 2(k-1).
			perLevel := map[int]int{}
			set := map[int]bool{}
			for _, v := range nodes {
				set[v] = true
				perLevel[tr.Depth(v)]++
			}
			for d, c := range perLevel {
				if d > 0 && c > 2*(k-1) {
					t.Fatalf("k=%d level %d uses %d nodes > 2(k-1)", k, d, c)
				}
			}
			for _, v := range nodes {
				if v == 0 {
					continue
				}
				parent := tr.Parent(v)
				clo, chi := tr.Children(parent)
				all := true
				for c := clo; c < chi; c++ {
					if !set[c] {
						all = false
						break
					}
				}
				if all {
					t.Fatalf("k=%d all children of %d present; not minimal", k, parent)
				}
			}
		}
	}
}

func TestDecomposePanicsOnBadRange(t *testing.T) {
	tr := MustNew(2, 8)
	for _, r := range [][2]int{{-1, 3}, {0, 9}, {3, 3}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decompose(%d,%d) did not panic", r[0], r[1])
				}
			}()
			tr.Decompose(r[0], r[1])
		}()
	}
}

func TestRangeSumMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 2))
	tr := MustNew(2, 100)
	unit := make([]float64, 100)
	for i := range unit {
		unit[i] = float64(rng.IntN(50))
	}
	counts := tr.FromLeaves(unit)
	for trial := 0; trial < 500; trial++ {
		lo := rng.IntN(tr.NumLeaves())
		hi := lo + 1 + rng.IntN(tr.NumLeaves()-lo)
		want := 0.0
		for i := lo; i < hi && i < len(unit); i++ {
			want += unit[i]
		}
		if got := tr.RangeSum(counts, lo, hi); math.Abs(got-want) > 1e-9 {
			t.Fatalf("RangeSum[%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

// The iterative RangeSum must visit exactly the nodes Decompose names —
// integer counts make the comparison exact regardless of summation
// order — across branching factors, domains, and every range.
func TestRangeSumMatchesDecomposition(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 7))
	for _, k := range []int{2, 3, 4, 5} {
		for _, domain := range []int{1, 2, 7, 16, 100} {
			tr := MustNew(k, domain)
			counts := make([]float64, tr.NumNodes())
			for i := range counts {
				counts[i] = float64(rng.IntN(1000))
			}
			for lo := 0; lo <= tr.NumLeaves(); lo++ {
				for hi := lo + 1; hi <= tr.NumLeaves(); hi++ {
					want := 0.0
					for _, v := range tr.Decompose(lo, hi) {
						want += counts[v]
					}
					if got := tr.RangeSum(counts, lo, hi); got != want {
						t.Fatalf("k=%d domain=%d: RangeSum[%d,%d) = %v, decomposition sum = %v",
							k, domain, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// DecomposeCount counts exactly the nodes Decompose returns, for every
// range of every domain up to 64 leaves.
func TestDecomposeCountMatchesDecompose(t *testing.T) {
	for _, k := range []int{2, 3, 4, 16} {
		for domain := 1; domain <= 64; domain++ {
			tr := MustNew(k, domain)
			for lo := 0; lo < tr.NumLeaves(); lo++ {
				for hi := lo + 1; hi <= tr.NumLeaves(); hi++ {
					if got, want := tr.DecomposeCount(lo, hi), len(tr.Decompose(lo, hi)); got != want {
						t.Fatalf("k=%d domain=%d: DecomposeCount[%d,%d) = %d, len(Decompose) = %d",
							k, domain, lo, hi, got, want)
					}
				}
			}
		}
	}
}

func TestRangeSumEmptyRangeIsZero(t *testing.T) {
	tr := MustNew(3, 10)
	counts := tr.FromLeaves([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for lo := 0; lo <= tr.NumLeaves(); lo++ {
		if got := tr.RangeSum(counts, lo, lo); got != 0 {
			t.Fatalf("RangeSum[%d,%d) = %v, want 0", lo, lo, got)
		}
	}
}

func TestRangeSumPanicsOnBadRange(t *testing.T) {
	tr := MustNew(2, 8)
	counts := make([]float64, tr.NumNodes())
	for _, r := range [][2]int{{-1, 3}, {0, 9}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RangeSum(%d,%d) did not panic", r[0], r[1])
				}
			}()
			tr.RangeSum(counts, r[0], r[1])
		}()
	}
}

func TestFromLeavesPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized unit vector accepted")
		}
	}()
	MustNew(2, 4).FromLeaves(make([]float64, 5))
}

func TestIsConsistentDetectsViolation(t *testing.T) {
	tr := MustNew(2, 4)
	counts := tr.FromLeaves([]float64{1, 2, 3, 4})
	counts[1] += 0.5
	if tr.IsConsistent(counts, 1e-9) {
		t.Fatal("violation not detected")
	}
	if !tr.IsConsistent(counts, 1.0) {
		t.Fatal("tolerance not respected")
	}
}

func TestQuickDecomposeCoversExactly(t *testing.T) {
	tr := MustNew(2, 64)
	f := func(a, b uint16) bool {
		lo := int(a) % tr.NumLeaves()
		hi := lo + 1 + int(b)%(tr.NumLeaves()-lo)
		total := 0
		for _, v := range tr.Decompose(lo, hi) {
			nlo, nhi := tr.Interval(v)
			total += nhi - nlo
		}
		return total == hi-lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFromLeavesRootIsTotal(t *testing.T) {
	tr := MustNew(4, 64)
	f := func(raw []float64) bool {
		unit := make([]float64, 64)
		total := 0.0
		for i := range unit {
			if i < len(raw) && !math.IsNaN(raw[i]) && !math.IsInf(raw[i], 0) {
				unit[i] = math.Mod(math.Abs(raw[i]), 1000)
			}
			total += unit[i]
		}
		counts := tr.FromLeaves(unit)
		return math.Abs(counts[0]-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecompose(b *testing.B) {
	tr := MustNew(2, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Decompose(1234, 43210)
	}
}

// The serving hot path: one range query against a stored tree must be
// allocation-free (compare BenchmarkDecompose, which builds a node
// slice per call).
func BenchmarkRangeSum(b *testing.B) {
	tr := MustNew(2, 1<<16)
	counts := make([]float64, tr.NumNodes())
	for i := range counts {
		counts[i] = float64(i % 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.RangeSum(counts, 1234, 43210)
	}
}

func BenchmarkFromLeaves(b *testing.B) {
	tr := MustNew(2, 1<<16)
	unit := make([]float64, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FromLeaves(unit)
	}
}

// LevelPrefixSums is the compiled form behind the plan engine's
// tree-offset mode: its tables must reproduce every node value and
// every contiguous same-level run as a two-lookup difference.
func TestLevelPrefixSums(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for _, k := range []int{2, 3, 4} {
		for _, domain := range []int{1, 2, 9, 27, 64} {
			tr := MustNew(k, domain)
			counts := make([]float64, tr.NumNodes())
			for i := range counts {
				counts[i] = float64(rng.IntN(100)) - 20 // arbitrary, not consistent
			}
			levels := tr.LevelPrefixSums(counts)
			if len(levels) != tr.Height() {
				t.Fatalf("k=%d domain=%d: %d levels, want height %d", k, domain, len(levels), tr.Height())
			}
			for j, row := range levels {
				depth := tr.Height() - 1 - j
				width := tr.LevelWidth(depth)
				if len(row) != width+1 {
					t.Fatalf("level %d: %d entries, want %d", j, len(row), width+1)
				}
				start := tr.LevelStart(depth)
				for i := 0; i < width; i++ {
					if got := row[i+1] - row[i]; math.Abs(got-counts[start+i]) > 1e-9 {
						t.Fatalf("level %d node %d: %v, want %v", j, i, got, counts[start+i])
					}
				}
			}
		}
	}
}
