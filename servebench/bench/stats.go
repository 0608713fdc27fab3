package bench

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a reported tail
// percentile.
const MinBeyond = 10

// Summary is an exact-sample latency summary.
type Summary struct {
	N int
	// P50 is the nearest-rank median.
	P50 float64
	// Tail is the nearest-rank p99, or the highest percentile with at
	// least MinBeyond samples beyond it when there are too few samples
	// for p99; TailPct names which.
	Tail    float64
	TailPct float64
}

// Summarize sorts xs in place and applies the percentile rule. The tail
// never drops below the median: with fewer than 2*MinBeyond+1 samples
// the tail is the median itself.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	mid := rank(0.5, n)
	tail := min(rank(0.99, n), n-1-MinBeyond)
	if tail < mid {
		tail = mid
	}
	return Summary{N: n, P50: xs[mid], Tail: xs[tail], TailPct: 100 * float64(tail+1) / float64(n)}
}

// rank is the 0-based nearest-rank index of quantile q over n samples.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// Median returns the nearest-rank median of xs (sorted in place).
func Median(xs []float64) float64 {
	return Summarize(xs).P50
}
