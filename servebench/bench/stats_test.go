package bench

import (
	"math/rand/v2"
	"testing"
)

func TestSummarizePercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n         int
		p50, tail float64 // values; sample i holds i+1
		pct       float64
	}{
		{n: 1000, p50: 500, tail: 990, pct: 99}, // p99 leaves 10 beyond
		{n: 2000, p50: 1000, tail: 1980, pct: 99},
		{n: 500, p50: 250, tail: 490, pct: 98}, // p99 would leave 5 beyond
		{n: 100, p50: 50, tail: 90, pct: 90},
		{n: 15, p50: 8, tail: 8, pct: 100 * 8.0 / 15}, // too few: tail is the median
		{n: 1, p50: 1, tail: 1, pct: 100},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		s := Summarize(xs)
		if s.N != tc.n || s.P50 != tc.p50 || s.Tail != tc.tail || s.TailPct != tc.pct {
			t.Errorf("n=%d: got %+v, want p50=%v tail=%v pct=%v", tc.n, s, tc.p50, tc.tail, tc.pct)
		}
		if beyond := tc.n - int(s.Tail); tc.n > 2*MinBeyond && beyond < MinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail", tc.n, beyond)
		}
	}
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
}
