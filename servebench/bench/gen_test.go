package bench

import (
	"bytes"
	"testing"
)

// streamBytes concatenates the first n requests a workload's replay
// sends after its setup, with the setup and the dataset in front.
func streamBytes(t *testing.T, workload string, seed uint64, n int) []byte {
	t.Helper()
	rp, ok := NewReplay(workload, seed)
	if !ok {
		t.Fatalf("no replay for %s", workload)
	}
	csv, _ := DatasetFor(workload, seed)
	var b bytes.Buffer
	b.Write(csv)
	for _, r := range rp.Setup {
		b.WriteString(r.Path)
		b.Write(r.Body)
	}
	for i := 0; i < n; i++ {
		r := rp.Next()
		b.WriteString(r.Path)
		b.Write(r.Body)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range Workloads {
		n := 300
		if w == ReadBulk {
			n = 3
		}
		a, b := streamBytes(t, w, 7, n), streamBytes(t, w, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced different bytes on two calls", w)
		}
		if c := streamBytes(t, w, 8, n); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w)
		}
	}
}

func TestLiveStreamsMatchReplay(t *testing.T) {
	// The timed run's interactive stream is the replay's stream.
	live := interactiveStream(5, streamInteractive)
	rp, _ := NewReplay(ReadInteractive, 5)
	for i := 0; i < 200; i++ {
		a, b := live(), rp.Next()
		if a.Path != b.Path || !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("request %d differs", i)
		}
	}
}

func TestDatasetCounts(t *testing.T) {
	csv, counts := Dataset(3, ReadDomain, 10000)
	if got := bytes.Count(csv, []byte("\n")); got != 10000 {
		t.Fatalf("%d records, want 10000", got)
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total != 10000 {
		t.Fatalf("counts sum to %v, want 10000", total)
	}
}

func TestBulkSpecsDistinct(t *testing.T) {
	g := NewBulkGen(1)
	for i := uint64(0); i < BulkScanned; i++ {
		q := g.Request(i)
		if q.Specs() != BulkSpecs {
			t.Fatalf("request %d has %d specs", i, q.Specs())
		}
		seen := map[[4]int]bool{}
		for _, r := range q.Ranges {
			seen[[4]int{r.Lo, r.Hi}] = true
		}
		for _, r := range q.Rects {
			seen[[4]int{r.X0, r.Y0, r.X1, r.Y1}] = true
		}
		if len(seen) != BulkSpecs {
			t.Fatalf("request %d repeats specs: %d distinct", i, len(seen))
		}
	}
}

func TestRepeatShare(t *testing.T) {
	g := NewQueryGen(2, 0x1e, InteractiveTargets, ReadDomain, ReadGrid, interactiveBatch, repeatShare)
	repeats := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Repeat {
			repeats++
		}
	}
	if share := float64(repeats) / n; share < repeatShare-0.02 || share > repeatShare+0.02 {
		t.Fatalf("repeat share %.3f, want about %v", share, repeatShare)
	}
}
