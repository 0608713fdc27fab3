package bench

import (
	"math/rand/v2"
	"sync"
)

// The request streams of each workload, built from the run's seed. The
// timed run and the traced replay both take their requests from here,
// so they send the same sequence.

// setupRNG drives the setup mints and ingests.
func setupRNG(seed uint64) *rand.Rand { return rngFor(seed, 0x5e7) }

// setupReqs is one read-workload setup: every target minted mintRounds
// times (round-major), then setupIngests ingest batches.
func setupReqs(rng *rand.Rand, targets []Target) []*Req {
	var reqs []*Req
	for round := 0; round < mintRounds; round++ {
		for i := range targets {
			t := &targets[i]
			reqs = append(reqs, MintReq(&Mint{Target: t, Strategy: t.Strategy, Body: MintBody(rng, t, t.Strategy, ReadDomain, ReadGrid)}))
		}
	}
	for i := 0; i < setupIngests; i++ {
		reqs = append(reqs, IngestReq(IngestBody(rng, ReadDomain)))
	}
	return reqs
}

// prefillReqs mints every write-mixed target twice.
func prefillReqs(seed uint64, targets []Target) []*Req {
	rng := rngFor(seed, 0x9f11)
	var reqs []*Req
	for round := 0; round < 2; round++ {
		for i := range targets {
			t := &targets[i]
			reqs = append(reqs, MintReq(&Mint{Target: t, Strategy: t.Strategy, Body: MintBody(rng, t, t.Strategy, WriteDomain, WriteGrid)}))
		}
	}
	return reqs
}

// Query generator streams. A closed-loop burst draws from a stream of
// its own: how many requests it sends depends on the server's speed,
// and on a shared stream it would shift every open-loop request after
// it.
const (
	streamInteractive      = 0x1e
	streamInteractiveBurst = 0x1eb
	streamWriteReads       = 0x3ead
	streamWriteBurst       = 0x3eab
)

func interactiveStream(seed, stream uint64) func() *Req {
	gen := NewQueryGen(seed, stream, InteractiveTargets, ReadDomain, ReadGrid, interactiveBatch, repeatShare)
	return func() *Req { return QueryReq(gen.Next()) }
}

// bulkStream returns read-bulk's stream for the given number of
// concurrent senders; request numbers are handed out in order.
func bulkStream(seed uint64, workers int) func(worker int) *Req {
	gens := make([]*BulkGen, workers)
	for w := range gens {
		gens[w] = NewBulkGen(seed)
	}
	var mu sync.Mutex
	var i uint64
	return func(w int) *Req {
		mu.Lock()
		n := i
		i++
		mu.Unlock()
		return QueryReq(gens[w].Request(n))
	}
}

func writeStream(seed uint64, targets []Target) func() *Req {
	return NewWriteGen(seed, targets, mintShare).Next
}

func writeReadStream(seed uint64, targets []Target, stream uint64) func() *Req {
	gen := NewQueryGen(seed, stream, targets, WriteDomain, WriteGrid, interactiveBatch, 0)
	return func() *Req { return QueryReq(gen.Next()) }
}

// Replay is a workload's stream for a single sequential sender: the
// traced run's input.
type Replay struct {
	Domain, Grid int
	// Setup is what one setup sends before the stream (read workloads),
	// or the pre-fill of the data dir (write-mixed).
	Setup []*Req
	// Durable is set when the workload's server keeps a data dir.
	Durable bool
	// Next returns the stream's next request. Write-mixed interleaves its
	// write and read streams in their rate ratio.
	Next func() *Req
}

// NewReplay returns the workload's stream for seed.
func NewReplay(workload string, seed uint64) (*Replay, bool) {
	switch workload {
	case ReadInteractive:
		return &Replay{Domain: ReadDomain, Grid: ReadGrid,
			Setup: setupReqs(setupRNG(seed), InteractiveTargets), Next: interactiveStream(seed, streamInteractive)}, true
	case ReadBulk:
		next := bulkStream(seed, 1)
		return &Replay{Domain: ReadDomain, Grid: ReadGrid,
			Setup: setupReqs(setupRNG(seed), BulkTargets), Next: func() *Req { return next(0) }}, true
	case WriteMixed:
		targets := WriteTargets()
		writes, reads := writeStream(seed, targets), writeReadStream(seed, targets, streamWriteReads)
		pick := rngFor(seed, 0x3e1a)
		return &Replay{Domain: WriteDomain, Grid: WriteGrid, Durable: true,
			Setup: prefillReqs(seed, targets),
			Next: func() *Req {
				if pick.Float64() < float64(writeRate)/(writeRate+readRate) {
					return writes()
				}
				return reads()
			}}, true
	}
	return nil, false
}

// DatasetFor returns the workload's protected dataset for seed.
func DatasetFor(workload string, seed uint64) ([]byte, []float64) {
	if workload == WriteMixed {
		return Dataset(seed, WriteDomain, Records)
	}
	return Dataset(seed, ReadDomain, Records)
}
