package dphist

// One benchmark per table/figure of the paper, plus benches for the
// closed-form inference algorithms whose efficiency the paper highlights
// (Theorems 1 and 3 give linear-time solutions; the benches document
// that). Full paper-scale sweeps live in cmd/dphist-bench; each bench
// here runs one trial of the corresponding experiment pipeline at test
// scale so `go test -bench=.` stays fast while still exercising the
// exact code paths that regenerate the figures.

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/dphist/dphist/internal/core"
	"github.com/dphist/dphist/internal/experiments"
	"github.com/dphist/dphist/internal/htree"
	"github.com/dphist/dphist/internal/laplace"
	"github.com/dphist/dphist/internal/wavelet"
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:          42,
		Scale:         experiments.ScaleSmall,
		Trials:        3,
		RangesPerSize: 50,
	}
}

// Figure 2(b): the running example, all three query pipelines.
func BenchmarkFig2Example(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunFig2(cfg, 1.0)
	}
}

// Figure 3: one sample on the mostly-uniform 25-sequence.
func BenchmarkFig3Sample(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunFig3(cfg)
	}
}

// Figure 5: the unattributed-histogram sweep (3 datasets x 3 epsilons).
func BenchmarkFig5Unattributed(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunFig5(cfg)
	}
}

// Figure 6: the universal-histogram range sweep (2 datasets x 3 epsilons).
func BenchmarkFig6Universal(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunFig6(cfg)
	}
}

// Figure 7: the positional error profile on NetTrace.
func BenchmarkFig7Profile(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunFig7(cfg)
	}
}

// Theorem 2: the d-scaling study for S-bar.
func BenchmarkTheorem2Scaling(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunTheorem2(cfg)
	}
}

// Theorem 4(iv): the all-but-endpoints gap experiment.
func BenchmarkTheorem4Gap(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunTheorem4(cfg)
	}
}

// Appendix E: the usefulness-bound table and the database-size growth
// comparison against the equi-depth baseline.
func BenchmarkBlumComparison(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.BlumBounds(0.05, 0.01)
		_ = experiments.RunBlumEmpirical(cfg)
	}
}

// Ablation: branching-factor sweep for the H tree.
func BenchmarkBranchingFactor(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunBranching(cfg)
	}
}

// Ablation: Section 4.2 non-negativity heuristic.
func BenchmarkNonNegativityAblation(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunNonNegativity(cfg)
	}
}

// Ablation: wavelet mechanism vs the H strategies.
func BenchmarkWaveletVsHTree(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunWaveletComparison(cfg)
	}
}

// Extension: 2D universal histograms (Appendix B future work).
func Benchmark2DExtension(b *testing.B) {
	cfg := benchCfg()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunExt2D(cfg)
	}
}

// Theorem 1's solution via PAVA is linear time: full 65536-element
// isotonic inference per iteration.
func BenchmarkInferSorted64K(b *testing.B) {
	truth := make([]float64, 1<<16)
	for i := range truth {
		truth[i] = float64(i / 64)
	}
	noisy := core.Perturb(truth, 1, 0.1, laplace.NewRand(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.InferSorted(noisy)
	}
}

// Theorem 3's two-pass inference is linear time: a height-17 binary tree
// (131071 nodes) per iteration.
func BenchmarkInferTree64K(b *testing.B) {
	tree := htree.MustNew(2, 1<<16)
	unit := make([]float64, 1<<16)
	noisy := core.ReleaseTree(tree, unit, 0.1, laplace.NewRand(2, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.InferTree(tree, noisy)
	}
}

// The Laplace mechanism itself at figure scale.
func BenchmarkRelease64K(b *testing.B) {
	unit := make([]float64, 1<<16)
	src := laplace.NewRand(3, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.ReleaseL(unit, 1.0, src)
	}
}

// The Haar decomposition at figure scale.
func BenchmarkWaveletDecompose64K(b *testing.B) {
	unit := make([]float64, 1<<16)
	for i := range unit {
		unit[i] = float64(i % 31)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Decompose(unit); err != nil {
			b.Fatal(err)
		}
	}
}

// End-to-end public API: one universal release over a 16K domain.
func BenchmarkUniversalHistogram16K(b *testing.B) {
	counts := make([]float64, 1<<14)
	for i := range counts {
		counts[i] = float64(i % 7)
	}
	m := MustNew(WithSeed(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.UniversalHistogram(counts, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// singleMutexStore replicates the seed release store's read path — one
// global mutex, a TTL clock read, and an LRU touch on every Get — as
// the baseline BenchmarkStoreGetParallel measures the sharded store
// against.
type singleMutexStore struct {
	mu      sync.Mutex
	items   map[string]*singleMutexItem
	recency *list.List
}

// singleMutexItem is a seed-store entry: the release and its element
// of the recency list.
type singleMutexItem struct {
	release Release
	elem    *list.Element
}

func newSingleMutexStore() *singleMutexStore {
	return &singleMutexStore{items: make(map[string]*singleMutexItem), recency: list.New()}
}

func (s *singleMutexStore) put(name string, r Release) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[name] = &singleMutexItem{release: r, elem: s.recency.PushFront(name)}
}

func (s *singleMutexStore) get(name string) (Release, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.items[name]
	if !ok {
		return nil, false
	}
	_ = time.Now() // the seed store consulted the TTL clock on every read
	s.recency.MoveToFront(it.elem)
	return it.release, true
}

// The serving metadata hot path under concurrent readers: the seed
// store serialized every Get on one mutex and touched the LRU list and
// clock each time. The sharded store hashes to an independent shard and
// takes only its read lock, with no recency or clock work; it must beat
// the baseline here, and it additionally removes cross-core lock
// contention that a single-core runner cannot exhibit.
func BenchmarkStoreGetParallel(b *testing.B) {
	rel, err := MustNew(WithSeed(11)).UniversalHistogram([]float64{2, 0, 10, 2, 5, 5, 5, 5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	const names = 64
	keys := make([]string, names)
	for i := range keys {
		keys[i] = fmt.Sprintf("rel-%d", i)
	}
	b.Run("single-mutex-baseline", func(b *testing.B) {
		s := newSingleMutexStore()
		for _, k := range keys {
			s.put(k, rel)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, ok := s.get(keys[i%names]); !ok {
					b.Fail()
				}
				i++
			}
		})
	})
	b.Run("sharded", func(b *testing.B) {
		s := NewStore() // default: defaultShards shards, unbounded
		for _, k := range keys {
			if _, err := s.Put(k, rel); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, ok := s.Get(keys[i%names]); !ok {
					b.Fail()
				}
				i++
			}
		})
	})
}

// The write side of the durable store: one journaled, fsync-free put.
// (Fsync cost is the disk's, not the code's; WithoutSync isolates the
// framing and bookkeeping overhead.)
func BenchmarkStorePutDurable(b *testing.B) {
	rel, err := MustNew(WithSeed(12)).UniversalHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := OpenStore(b.TempDir(), WithoutSync(), WithSnapshotEvery(0))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("hot", rel); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotStore opens a durable store in dir holding n universal
// releases at domain 256 across four namespaces, about 20 KiB of
// snapshot document each.
func snapshotStore(tb testing.TB, dir string, n int) *Store {
	tb.Helper()
	s, err := OpenStore(dir, WithoutSync(), WithSnapshotEvery(0))
	if err != nil {
		tb.Fatal(err)
	}
	counts := make([]float64, 256)
	for i := range counts {
		counts[i] = float64(i % 23)
	}
	m := MustNew(WithSeed(13))
	for i := 0; i < n; i++ {
		rel, err := m.UniversalHistogram(counts, 0.5)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := s.Namespace(fmt.Sprintf("tenant-%d", i%4)).Put(fmt.Sprintf("rel-%d", i), rel); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// One snapshot of a durable store, fsync included: the document streams
// to its file a release at a time, so bytes allocated per op stay near
// one encoded release plus the write buffer at either size.
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("releases=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s := snapshotStore(b, dir, n)
			defer s.Close()
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
			info, err := os.Stat(filepath.Join(dir, snapshotFile))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(info.Size())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end public API: one unattributed release over a 16K multiset.
func BenchmarkUnattributedHistogram16K(b *testing.B) {
	counts := make([]float64, 1<<14)
	for i := range counts {
		counts[i] = float64(i % 100)
	}
	m := MustNew(WithSeed(10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.UnattributedHistogram(counts, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
