package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/laplace"
	"github.com/dphist/dphist/internal/linalg"
)

// Fig 2(b) end to end: the paper lists the noisy tree
// H~(I) = <13, 3, 11, 4, 1, 12, 1> and the inferred answer
// H(I)-bar = <14, 3, 11, 3, 0, 11, 0>.
func TestPaperFig2InferredAnswer(t *testing.T) {
	tr := htree.MustNew(2, 4)
	htilde := []float64{13, 3, 11, 4, 1, 12, 1}
	got := InferTree(tr, htilde)
	want := []float64{14, 3, 11, 3, 0, 11, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("InferTree = %v, want %v", got, want)
		}
	}
}

func TestSensitivityH(t *testing.T) {
	if got := SensitivityH(htree.MustNew(2, 4)); got != 3 {
		t.Errorf("sensitivity = %v, want 3 (Fig 4 tree)", got)
	}
	if got := SensitivityH(htree.MustNew(2, 1<<15)); got != 16 {
		t.Errorf("sensitivity = %v, want 16 (height-16 tree)", got)
	}
}

func TestInferTreeConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 34))
	for _, k := range []int{2, 3, 5} {
		tr := htree.MustNew(k, 40)
		noisy := make([]float64, tr.NumNodes())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 20
		}
		h := InferTree(tr, noisy)
		if !tr.IsConsistent(h, 1e-6) {
			t.Fatalf("k=%d inferred tree inconsistent", k)
		}
	}
}

func TestInferTreeIdempotentOnConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 14))
	tr := htree.MustNew(2, 16)
	unit := make([]float64, 16)
	for i := range unit {
		unit[i] = rng.Float64() * 10
	}
	truth := tr.FromLeaves(unit)
	got := InferTree(tr, truth)
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("projection moved a consistent vector at node %d", i)
		}
	}
}

// Theorem 3 must agree with explicit ordinary least squares on the leaf
// unknowns (the linear-regression view of Section 4.1).
func TestInferTreeMatchesOLS(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	for _, cfg := range []struct{ k, domain int }{{2, 4}, {2, 8}, {2, 16}, {3, 9}, {3, 27}, {4, 16}} {
		tr := htree.MustNew(cfg.k, cfg.domain)
		noisy := make([]float64, tr.NumNodes())
		for i := range noisy {
			noisy[i] = rng.NormFloat64() * 10
		}
		fast := InferTree(tr, noisy)
		a := TreeDesignMatrix(tr)
		leafFit, err := linalg.LeastSquares(a, noisy)
		if err != nil {
			t.Fatal(err)
		}
		slow := a.MulVec(leafFit)
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-6 {
				t.Fatalf("k=%d n=%d: Theorem 3 %v != OLS %v at node %d",
					cfg.k, cfg.domain, fast[i], slow[i], i)
			}
		}
	}
}

func TestInferTreeLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	tr := htree.MustNew(2, 8)
	x := make([]float64, tr.NumNodes())
	y := make([]float64, tr.NumNodes())
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	const a, b = 2.5, -1.25
	combo := make([]float64, len(x))
	for i := range x {
		combo[i] = a*x[i] + b*y[i]
	}
	hx, hy, hc := InferTree(tr, x), InferTree(tr, y), InferTree(tr, combo)
	for i := range hc {
		if math.Abs(hc[i]-(a*hx[i]+b*hy[i])) > 1e-9 {
			t.Fatal("InferTree is not linear")
		}
	}
}

// The projection must be at least as close to the noisy vector as any
// other consistent vector (minimum-L2 property).
func TestInferTreeOptimality(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	tr := htree.MustNew(2, 8)
	noisy := make([]float64, tr.NumNodes())
	for i := range noisy {
		noisy[i] = rng.NormFloat64() * 5
	}
	h := InferTree(tr, noisy)
	base := sqDist(noisy, h)
	for cand := 0; cand < 200; cand++ {
		unit := make([]float64, 8)
		for i := range unit {
			unit[i] = rng.NormFloat64() * 5
		}
		c := tr.FromLeaves(unit)
		if d := sqDist(noisy, c); d < base-1e-9 {
			t.Fatalf("consistent candidate closer than projection: %v < %v", d, base)
		}
	}
}

// Theorem 4(i): H-bar is unbiased. Averaging inferred trees over many
// releases must converge on the truth.
func TestInferTreeUnbiased(t *testing.T) {
	tr := htree.MustNew(2, 8)
	unit := []float64{5, 0, 0, 12, 3, 3, 0, 7}
	truth := tr.FromLeaves(unit)
	const eps, trials = 1.0, 3000
	mean := make([]float64, tr.NumNodes())
	for trial := 0; trial < trials; trial++ {
		htilde := ReleaseTree(tr, unit, eps, laplace.Stream(555, trial))
		for i, v := range InferTree(tr, htilde) {
			mean[i] += v
		}
	}
	scale := NoiseScale(SensitivityH(tr), eps)
	for i := range mean {
		mean[i] /= trials
		// Standard error of the mean of Laplace-driven estimates is at
		// most scale*sqrt(2/trials) per node; allow 5 sigma.
		tol := 5 * scale * math.Sqrt(2/float64(trials))
		if math.Abs(mean[i]-truth[i]) > tol {
			t.Fatalf("node %d biased: mean %v, truth %v (tol %v)", i, mean[i], truth[i], tol)
		}
	}
}

// Root accuracy: the root of H-bar averages all levels and must beat the
// raw noisy root variance 2(ell/eps)^2 by a visible margin.
func TestInferTreeReducesRootVariance(t *testing.T) {
	tr := htree.MustNew(2, 64) // height 7
	unit := make([]float64, 64)
	const eps, trials = 1.0, 800
	var rawSq, infSq float64
	truthRoot := 0.0
	for trial := 0; trial < trials; trial++ {
		htilde := ReleaseTree(tr, unit, eps, laplace.Stream(888, trial))
		h := InferTree(tr, htilde)
		rawSq += (htilde[0] - truthRoot) * (htilde[0] - truthRoot)
		infSq += (h[0] - truthRoot) * (h[0] - truthRoot)
	}
	if infSq >= rawSq*0.8 {
		t.Fatalf("root variance not reduced: inferred %v vs raw %v", infSq/trials, rawSq/trials)
	}
}

func TestInferTreePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	InferTree(htree.MustNew(2, 4), make([]float64, 6))
}

func TestZeroNegativeSubtrees(t *testing.T) {
	tr := htree.MustNew(2, 4)
	// Node 1 (covering leaves 0-1) is negative: its whole subtree zeroes.
	counts := []float64{10, -2, 12, 3, -5, 7, 5}
	got := ZeroNegativeSubtrees(tr, append([]float64(nil), counts...))
	want := []float64{10, 0, 12, 0, 0, 7, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ZeroNegativeSubtrees = %v, want %v", got, want)
		}
	}
}

func TestZeroNegativeSubtreesRoot(t *testing.T) {
	tr := htree.MustNew(2, 4)
	counts := []float64{-1, 5, 5, 2, 3, 2, 3}
	got := ZeroNegativeSubtrees(tr, counts)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("node %d = %v after zeroing negative root", i, v)
		}
	}
}

func TestTreeRangeHTilde(t *testing.T) {
	tr := htree.MustNew(2, 8)
	unit := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	counts := tr.FromLeaves(unit)
	if got := TreeRangeHTilde(tr, counts, 2, 7); got != 3+4+5+6+7 {
		t.Fatalf("range sum = %v, want 25", got)
	}
}

func TestTheoreticalErrorHTildeRange(t *testing.T) {
	tr := htree.MustNew(2, 1<<15) // ell = 16
	got := TheoreticalErrorHTildeRange(tr, 1.0, 4)
	want := 4 * 2 * 16.0 * 16.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Statistical check of Theorem 4(iv)'s setup: for the all-but-endpoints
// query on a modest tree, H-bar is substantially more accurate than H~.
func TestTheorem4QueryImprovement(t *testing.T) {
	tr := htree.MustNew(2, 64) // ell = 7
	unit := make([]float64, 64)
	for i := range unit {
		unit[i] = 10
	}
	truth := 10.0 * 62
	const eps, trials = 1.0, 500
	var errTilde, errBar float64
	for trial := 0; trial < trials; trial++ {
		htilde := ReleaseTree(tr, unit, eps, laplace.Stream(4242, trial))
		h := InferTree(tr, htilde)
		at := TreeRangeHTilde(tr, htilde, 1, 63)
		ab := TreeRangeHTilde(tr, h, 1, 63)
		errTilde += (at - truth) * (at - truth)
		errBar += (ab - truth) * (ab - truth)
	}
	// Theory predicts a factor 2(ell-1)(k-1)-k)/3 = 10/3 ~ 3.3 at ell=7,k=2;
	// require at least 2x to keep the test robust.
	if errBar*2 > errTilde {
		t.Fatalf("expected >=2x improvement: H~ %v vs H-bar %v", errTilde/trials, errBar/trials)
	}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// denseRangeVariance is the O(nodes) form of RangeVariance.Range: one
// InferTree call on the input that is the range's leaf indicator c on
// the leaf level and zero elsewhere returns (A^T A)^{-1} c on the
// leaves, whose sum over the range is c^T (A^T A)^{-1} c.
func denseRangeVariance(tr *htree.Tree, lo, hi int) float64 {
	y := make([]float64, tr.NumNodes())
	for i := lo; i < hi; i++ {
		y[tr.LeafIndex(i)] = 1
	}
	h := InferTree(tr, y)
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += h[tr.LeafIndex(i)]
	}
	return sum
}

// The boundary walk must agree with the full two-pass inference on
// trees past the dense Cholesky oracle's reach (1024 to 4096 leaves).
func TestRangeVarianceMatchesDenseInference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 10))
	for _, cfg := range []struct{ k, domain int }{{2, 1024}, {2, 3000}, {2, 4096}, {4, 1500}, {16, 4096}} {
		tr := htree.MustNew(cfg.k, cfg.domain)
		v := NewRangeVariance(tr)
		ranges := [][2]int{{0, cfg.domain}, {0, 1}, {cfg.domain - 1, cfg.domain}, {0, tr.NumLeaves()}}
		for i := 0; i < 16; i++ {
			lo := rng.IntN(cfg.domain)
			ranges = append(ranges, [2]int{lo, lo + 1 + rng.IntN(cfg.domain-lo)})
		}
		for _, r := range ranges {
			got, want := v.Range(r[0], r[1]), denseRangeVariance(tr, r[0], r[1])
			if math.Abs(got-want) > 1e-9*want {
				t.Fatalf("k=%d domain %d range %v: walk %v, dense inference %v", cfg.k, cfg.domain, r, got, want)
			}
		}
	}
}

func TestRangeVariancePanicsOnBadRange(t *testing.T) {
	v := NewRangeVariance(htree.MustNew(2, 8))
	for _, r := range [][2]int{{-1, 2}, {0, 9}, {3, 3}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v accepted", r)
				}
			}()
			v.Range(r[0], r[1])
		}()
	}
}

// FuzzRangeVariance compares the boundary walk with the dense one-
// InferTree form on arbitrary branching factors, domains and ranges.
func FuzzRangeVariance(f *testing.F) {
	f.Add(uint8(0), uint16(3), uint16(1), uint16(1))
	f.Add(uint8(1), uint16(26), uint16(4), uint16(17))
	f.Add(uint8(14), uint16(4095), uint16(0), uint16(4095))
	f.Add(uint8(2), uint16(999), uint16(998), uint16(0))
	f.Fuzz(func(t *testing.T, kb uint8, nb, lob, hib uint16) {
		k := 2 + int(kb)%15
		n := 1 + int(nb)%4096
		lo := int(lob) % n
		hi := lo + 1 + int(hib)%(n-lo)
		tr := htree.MustNew(k, n)
		got, want := NewRangeVariance(tr).Range(lo, hi), denseRangeVariance(tr, lo, hi)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("k=%d domain %d range [%d,%d): walk %v, dense inference %v", k, n, lo, hi, got, want)
		}
	})
}
