package ingest

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/dphist/dphist"
)

const testEps = 0.5

// newTestIngester wires an ingester over the given store with a long
// epoch interval so only explicit Flush calls mint, which keeps tests
// deterministic.
func newTestIngester(t *testing.T, store *dphist.Store, mutate func(*Config)) *Ingester {
	t.Helper()
	mech, err := dphist.New(dphist.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:     store,
		Mechanism: mech,
		Domain:    8,
		Epoch:     time.Hour,
		Epsilon:   testEps,
		Shards:    3,
		Seed:      7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	t.Cleanup(func() { in.Close() })
	return in
}

func feed(t *testing.T, in *Ingester, ns, strm string, weights []float64) {
	t.Helper()
	var events []Event
	for b, w := range weights {
		if w != 0 {
			events = append(events, Event{Stream: strm, Bucket: b, Weight: w})
		}
	}
	n, err := in.Ingest(ns, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("accepted %d of %d events", n, len(events))
	}
}

func TestNewValidation(t *testing.T) {
	store := dphist.NewStore()
	mech, _ := dphist.New()
	base := Config{Store: store, Mechanism: mech, Domain: 4, Epoch: time.Second, Epsilon: 1}
	for name, mutate := range map[string]func(*Config){
		"nil store":        func(c *Config) { c.Store = nil },
		"nil mechanism":    func(c *Config) { c.Mechanism = nil },
		"zero domain":      func(c *Config) { c.Domain = 0 },
		"zero epoch":       func(c *Config) { c.Epoch = 0 },
		"zero epsilon":     func(c *Config) { c.Epsilon = 0 },
		"negative epsilon": func(c *Config) { c.Epsilon = -1 },
		"invalid strategy": func(c *Config) { c.Strategy = dphist.Strategy(99) },
		"hierarchy":        func(c *Config) { c.Strategy = dphist.StrategyHierarchy },
		"2d":               func(c *Config) { c.Strategy = dphist.StrategyUniversal2D },
		"huge shard count": func(c *Config) { c.Shards = 4096 },
		"negative shards":  func(c *Config) { c.Shards = -1 },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestIngestDropsBadEvents(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, nil)
	n, err := in.Ingest("", []Event{
		{Stream: "clicks", Bucket: -1},                     // below domain
		{Stream: "clicks", Bucket: 8},                      // past domain
		{Stream: "clicks", Bucket: 0, Weight: -1},          // negative
		{Stream: "clicks", Bucket: 0, Weight: math.NaN()},  // NaN
		{Stream: "clicks", Bucket: 0, Weight: math.Inf(1)}, // infinite
		{Stream: "..", Bucket: 0},                          // bad stream name
		{Stream: "clicks", Bucket: 3, Weight: 2},           // good
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("accepted %d events, want 1", n)
	}
	st := in.Stats()
	if st.Dropped != 6 || st.Events != 1 {
		t.Fatalf("stats dropped %d events %d, want 6 and 1", st.Dropped, st.Events)
	}
}

// TestEpochLifecycle walks the versioned-name contract: sequential
// epoch names, a "@latest" alias tracking the newest mint, version
// counters counting mints, and no mint for an empty interval.
func TestEpochLifecycle(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, nil)
	ns := store.Namespace(dphist.DefaultNamespace)

	feed(t, in, "", "clicks", []float64{5, 0, 3, 0, 0, 0, 0, 2})
	res, err := in.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 1 || res.Minted != 1 || res.Failed != 0 {
		t.Fatalf("flush 1: %+v", res)
	}
	feed(t, in, "", "clicks", []float64{0, 1, 0, 0, 0, 0, 0, 0})
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{EpochName("clicks", 1), EpochName("clicks", 2), LatestName("clicks")} {
		if _, _, ok := ns.Get(name); !ok {
			t.Fatalf("%s missing after two mints", name)
		}
	}
	if _, _, ok := ns.Get(EpochName("clicks", 3)); ok {
		t.Fatal("phantom third epoch")
	}
	if v := ns.Version(LatestName("clicks")); v != 2 {
		t.Fatalf("latest version %d, want 2", v)
	}
	latest, _, _ := ns.Get(LatestName("clicks"))
	epoch2, _, _ := ns.Get(EpochName("clicks", 2))
	lc, ec := latest.Counts(), epoch2.Counts()
	for i := range lc {
		if lc[i] != ec[i] {
			t.Fatal("@latest does not alias the newest epoch")
		}
	}

	// An interval with no events mints nothing and spends nothing.
	spent := ns.Accountant().Spent()
	res, err = in.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 0 || res.Minted != 0 {
		t.Fatalf("empty flush minted: %+v", res)
	}
	if got := ns.Accountant().Spent(); got != spent {
		t.Fatalf("empty flush spent budget: %v -> %v", spent, got)
	}
	if st := in.Stats(); st.EpochMints != 2 || st.Flushes != 3 {
		t.Fatalf("stats mints %d flushes %d, want 2 and 3", st.EpochMints, st.Flushes)
	}
}

// TestWindowEqualsSumOfEpochs is the sliding-window property test: at
// every mint, the "@window" release's counts equal the element-wise sum
// of the counts of its member epoch releases, exactly (composition is
// deterministic post-processing, not a fresh noisy release).
func TestWindowEqualsSumOfEpochs(t *testing.T) {
	const window = 3
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, func(c *Config) { c.Window = window })
	ns := store.Namespace(dphist.DefaultNamespace)

	for epoch := 1; epoch <= 6; epoch++ {
		weights := make([]float64, 8)
		for b := range weights {
			weights[b] = float64((epoch*3 + b*5) % 7)
		}
		feed(t, in, "", "clicks", weights)
		if _, err := in.Flush(); err != nil {
			t.Fatal(err)
		}

		wrel, _, ok := ns.Get(WindowName("clicks"))
		if !ok {
			t.Fatalf("epoch %d: no window release", epoch)
		}
		want := make([]float64, 8)
		members := 0
		for i := epoch - window + 1; i <= epoch; i++ {
			if i < 1 {
				continue
			}
			erel, _, ok := ns.Get(EpochName("clicks", i))
			if !ok {
				t.Fatalf("epoch %d: member %d missing", epoch, i)
			}
			for j, v := range erel.Counts() {
				want[j] += v
			}
			members++
		}
		if members == 0 || members > window {
			t.Fatalf("epoch %d: window has %d members", epoch, members)
		}
		got := wrel.Counts()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("epoch %d bucket %d: window %v, sum of members %v", epoch, j, got[j], want[j])
			}
		}
		if eps := wrel.Epsilon(); eps != testEps {
			t.Fatalf("window epsilon %v, want max member epsilon %v", eps, testEps)
		}
	}
	// Six epochs, six charges: the windows were free.
	if spent := ns.Accountant().Spent(); math.Abs(spent-6*testEps) > 1e-9 {
		t.Fatalf("spent %v, want %v (windows must not charge)", spent, 6*testEps)
	}
}

// TestRetainPrunesOldEpochs checks the eager retention path: epoch
// n-Retain disappears as epoch n mints, and the window shrinks to the
// epochs that still exist.
func TestRetainPrunesOldEpochs(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, func(c *Config) { c.Retain = 2; c.Window = 2 })
	ns := store.Namespace(dphist.DefaultNamespace)
	for epoch := 1; epoch <= 4; epoch++ {
		feed(t, in, "", "clicks", []float64{1, 2, 3, 0, 0, 0, 0, 0})
		if _, err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, gone := range []int{1, 2} {
		if _, _, ok := ns.Get(EpochName("clicks", gone)); ok {
			t.Fatalf("epoch %d survived retention of 2", gone)
		}
	}
	for _, kept := range []int{3, 4} {
		if _, _, ok := ns.Get(EpochName("clicks", kept)); !ok {
			t.Fatalf("epoch %d pruned too eagerly", kept)
		}
	}
	// Deletion never rewinds the sequence: next mint is epoch 5.
	feed(t, in, "", "clicks", []float64{1, 0, 0, 0, 0, 0, 0, 0})
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ns.Get(EpochName("clicks", 5)); !ok {
		t.Fatal("sequence rewound after pruning")
	}
}

// TestExpiredEpochLeavesQueryCleanly lets an epoch age out of a
// retention of one and checks the read path afterwards: the query
// answers ErrReleaseNotFound (a 404 on the HTTP surface) although the
// same batch was answered while the epoch was live.
func TestExpiredEpochLeavesQueryCleanly(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, func(c *Config) { c.Retain = 1 })
	ns := store.Namespace(dphist.DefaultNamespace)

	feed(t, in, "", "clicks", []float64{4, 4, 4, 4, 0, 0, 0, 0})
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	name := EpochName("clicks", 1)
	specs := []dphist.RangeSpec{{Lo: 0, Hi: 4}}
	if _, _, err := ns.Query(name, specs); err != nil {
		t.Fatalf("fresh epoch unqueryable: %v", err)
	}

	// Epoch 2 mints and deletes epoch 1.
	feed(t, in, "", "clicks", []float64{4, 4, 4, 4, 0, 0, 0, 0})
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.Query(name, specs); !errors.Is(err, dphist.ErrReleaseNotFound) {
		t.Fatalf("expired epoch query: %v, want ErrReleaseNotFound", err)
	}
	if _, _, ok := ns.Get(name); ok {
		t.Fatal("expired epoch still gettable")
	}
}

// TestBudgetExhaustionDropsEpoch: a refused charge surfaces in
// Stats.MintFailures, releases nothing, and leaves earlier epochs
// intact.
func TestBudgetExhaustionDropsEpoch(t *testing.T) {
	// Room for exactly one epoch at testEps.
	store := dphist.NewStore(dphist.WithBudget(testEps + 0.1))
	in := newTestIngester(t, store, nil)
	ns := store.Namespace(dphist.DefaultNamespace)

	feed(t, in, "", "clicks", []float64{1, 1, 0, 0, 0, 0, 0, 0})
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	feed(t, in, "", "clicks", []float64{0, 0, 1, 1, 0, 0, 0, 0})
	res, err := in.Flush()
	if !errors.Is(err, dphist.ErrBudgetExceeded) {
		t.Fatalf("flush past budget: %v, want ErrBudgetExceeded", err)
	}
	if res.Failed != 1 || res.Minted != 0 {
		t.Fatalf("flush result %+v", res)
	}
	if _, _, ok := ns.Get(EpochName("clicks", 2)); ok {
		t.Fatal("refused epoch was stored")
	}
	if _, _, ok := ns.Get(EpochName("clicks", 1)); !ok {
		t.Fatal("earlier epoch lost")
	}
	if st := in.Stats(); st.MintFailures != 1 {
		t.Fatalf("mint failures %d, want 1", st.MintFailures)
	}
}

// TestMultiStreamMultiNamespace: streams and namespaces mint
// independently, and per-shard buffers merge into whole histograms.
func TestMultiStreamMultiNamespace(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, nil)
	feed(t, in, "acme", "clicks", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	feed(t, in, "acme", "views", []float64{8, 7, 6, 5, 4, 3, 2, 1})
	feed(t, in, "globex", "clicks", []float64{9, 0, 0, 0, 0, 0, 0, 9})
	res, err := in.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams != 3 || res.Minted != 3 {
		t.Fatalf("flush %+v, want 3 streams minted", res)
	}
	for _, probe := range []struct{ ns, strm string }{
		{"acme", "clicks"}, {"acme", "views"}, {"globex", "clicks"},
	} {
		if _, _, ok := store.Namespace(probe.ns).Get(EpochName(probe.strm, 1)); !ok {
			t.Fatalf("%s/%s epoch missing", probe.ns, probe.strm)
		}
	}
	if _, _, ok := store.Namespace("globex").Get(EpochName("views", 1)); ok {
		t.Fatal("namespace bleed: globex minted a stream it never saw")
	}
	if st := in.Stats(); st.Streams != 3 {
		t.Fatalf("stats streams %d, want 3", st.Streams)
	}
}

// TestEpochAccuracy sanity-checks that the minted release actually
// reflects the drained histogram: with a large per-epoch epsilon the
// released counts hug the true ones.
func TestEpochAccuracy(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(1000))
	in := newTestIngester(t, store, func(c *Config) { c.Epsilon = 200 })
	truth := []float64{100, 50, 25, 0, 0, 75, 10, 5}
	feed(t, in, "", "clicks", truth)
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	rel, _, _ := store.Namespace(dphist.DefaultNamespace).Get(EpochName("clicks", 1))
	for i, got := range rel.Counts() {
		if math.Abs(got-truth[i]) > 3 {
			t.Fatalf("bucket %d: released %v, truth %v", i, got, truth[i])
		}
	}
}

// TestDurableResume is the kill-and-restart contract: a fresh ingester
// over a reopened store continues the epoch sequence exactly where the
// old one stopped, and the reopened budget ledger shows each epoch
// charged once.
func TestDurableResume(t *testing.T) {
	dir := t.TempDir()
	store, err := dphist.OpenStore(dir, dphist.WithBudget(100), dphist.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	in := newTestIngester(t, store, nil)
	for epoch := 1; epoch <= 3; epoch++ {
		feed(t, in, "", "clicks", []float64{float64(epoch), 0, 0, 0, 0, 0, 0, 1})
		if _, err := in.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := dphist.OpenStore(dir, dphist.WithBudget(100), dphist.WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ns := store2.Namespace(dphist.DefaultNamespace)
	if spent := ns.Accountant().Spent(); math.Abs(spent-3*testEps) > 1e-9 {
		t.Fatalf("reopened ledger spent %v, want %v", spent, 3*testEps)
	}
	if v := ns.Version(LatestName("clicks")); v != 3 {
		t.Fatalf("reopened latest version %d, want 3", v)
	}

	in2 := newTestIngester(t, store2, nil)
	feed(t, in2, "", "clicks", []float64{0, 0, 0, 0, 9, 0, 0, 0})
	if _, err := in2.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ns.Get(EpochName("clicks", 4)); !ok {
		t.Fatal("restart did not resume at epoch 4")
	}
	if _, _, ok := ns.Get(EpochName("clicks", 5)); ok {
		t.Fatal("restart skipped ahead")
	}
	if spent := ns.Accountant().Spent(); math.Abs(spent-4*testEps) > 1e-9 {
		t.Fatalf("ledger spent %v after resumed mint, want %v (no double charge)", spent, 4*testEps)
	}
}

// TestLiveCounts exercises the continual-count surface: running totals
// are queryable between mints, track the truth at large epsilon, and
// cost one per-stream charge on top of the epoch charges.
func TestLiveCounts(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(1000))
	in := newTestIngester(t, store, func(c *Config) { c.LiveEpsilon = 300 })
	ns := store.Namespace(dphist.DefaultNamespace)

	if _, err := in.LiveCounts("", "clicks", []int{0, 99}); err == nil {
		t.Fatal("out-of-domain bucket accepted")
	}
	// Unknown stream: all zeros, not an error.
	got, err := in.LiveCounts("", "clicks", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 0 {
			t.Fatal("unseen stream has nonzero live counts")
		}
	}

	truth := []float64{40, 0, 12, 0, 0, 0, 0, 3}
	feed(t, in, "", "clicks", truth)
	feed(t, in, "", "clicks", truth) // totals double
	got, err = in.LiveCounts("", "clicks", []int{0, 2, 7, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{80, 24, 6, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 2 {
			t.Fatalf("live bucket %d: %v, want about %v", i, got[i], want[i])
		}
	}
	// One per-stream live charge, no epoch charges yet.
	if spent := ns.Accountant().Spent(); math.Abs(spent-300) > 1e-9 {
		t.Fatalf("spent %v, want 300 (one live charge)", spent)
	}
	if st := in.Stats(); st.LiveCounters != 3 {
		t.Fatalf("live counters %d, want 3 (one per touched bucket)", st.LiveCounters)
	}
}

func TestLiveDisabled(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, nil) // LiveEpsilon zero
	feed(t, in, "", "clicks", []float64{1, 0, 0, 0, 0, 0, 0, 0})
	if _, err := in.LiveCounts("", "clicks", []int{0}); !errors.Is(err, ErrLiveDisabled) {
		t.Fatalf("live query on disabled surface: %v, want ErrLiveDisabled", err)
	}
}

func TestLiveChargeRefusedDisablesStream(t *testing.T) {
	// Budget covers epochs but not the live charge.
	store := dphist.NewStore(dphist.WithBudget(1))
	in := newTestIngester(t, store, func(c *Config) { c.LiveEpsilon = 5 })
	feed(t, in, "", "clicks", []float64{1, 1, 0, 0, 0, 0, 0, 0})
	// Flush first: the refusal is decided when a worker first sees the
	// stream, and the drain serializes behind that batch.
	if _, err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.LiveCounts("", "clicks", []int{0}); !errors.Is(err, ErrLiveDisabled) {
		t.Fatalf("refused-charge live query: %v, want ErrLiveDisabled", err)
	}
	// Epoch mints keep working: the refused live charge spent nothing.
	if _, _, ok := store.Namespace(dphist.DefaultNamespace).Get(EpochName("clicks", 1)); !ok {
		t.Fatal("epoch mint broken by refused live charge")
	}
}

func TestClosedIngester(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, func(c *Config) { c.LiveEpsilon = 1 })
	feed(t, in, "", "clicks", []float64{1, 0, 0, 0, 0, 0, 0, 0})
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	// Close mints the final partial epoch.
	if _, _, ok := store.Namespace(dphist.DefaultNamespace).Get(EpochName("clicks", 1)); !ok {
		t.Fatal("final flush on Close did not mint")
	}
	if _, err := in.Ingest("", []Event{{Stream: "clicks", Bucket: 0}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close: %v, want ErrClosed", err)
	}
	if _, err := in.LiveCounts("", "clicks", []int{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("LiveCounts after Close: %v, want ErrClosed", err)
	}
	if _, err := in.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestScheduledMint checks the epoch scheduler actually fires: with a
// short interval, posted events become a queryable epoch release within
// a few intervals, with no manual Flush.
func TestScheduledMint(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(100))
	in := newTestIngester(t, store, func(c *Config) { c.Epoch = 20 * time.Millisecond })
	feed(t, in, "", "clicks", []float64{3, 0, 0, 0, 0, 0, 0, 1})
	ns := store.Namespace(dphist.DefaultNamespace)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, ok := ns.Get(EpochName("clicks", 1)); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scheduler never minted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentIngestLiveFlush is the race-detector workout for the
// whole pipeline: many writers posting batches, readers hitting the
// live surface, and flushes interleaving, then a clean Close.
func TestConcurrentIngestLiveFlush(t *testing.T) {
	store := dphist.NewStore(dphist.WithBudget(1000))
	in := newTestIngester(t, store, func(c *Config) {
		c.LiveEpsilon = 1
		c.Window = 2
		c.Shards = 4
	})
	const writers, batches = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				events := []Event{
					{Stream: "clicks", Bucket: (w + b) % 8},
					{Stream: "views", Bucket: (w * b) % 8, Weight: 2},
				}
				if _, err := in.Ingest("", events); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := in.LiveCounts("", "clicks", []int{0, 3, 7}); err != nil && !errors.Is(err, ErrClosed) {
				t.Error(err)
				return
			}
			_ = in.Stats()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := in.Flush(); err != nil && !errors.Is(err, ErrClosed) {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	st := in.Stats()
	if want := int64(writers * batches * 2); st.Events != want {
		t.Fatalf("events %d, want %d", st.Events, want)
	}
	// Every accepted event is in exactly one epoch: summing all epochs of
	// both streams recovers the total event weight, up to noise.
	ns := store.Namespace(dphist.DefaultNamespace)
	total := 0.0
	for _, strm := range []string{"clicks", "views"} {
		for i := 1; ; i++ {
			rel, _, ok := ns.Get(EpochName(strm, i))
			if !ok {
				break
			}
			for _, v := range rel.Counts() {
				total += v
			}
		}
	}
	want := float64(writers * batches * 3) // weight 1 + weight 2 per batch step
	if math.Abs(total-want) > 0.25*want {
		t.Fatalf("epochs sum to %v, want about %v", total, want)
	}
}

// BenchmarkIngest drives pre-built 1024-event batches through the
// intake path — hash, shard dispatch, accumulate — with the scheduler
// idle. CI's bench smoke runs this at -benchtime=1x as a liveness
// check; cmd/dphist-bench's "ingest" experiment measures real rates.
func BenchmarkIngest(b *testing.B) {
	store := dphist.NewStore(dphist.WithBudget(1e9))
	mech, err := dphist.New(dphist.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	in, err := New(Config{
		Store: store, Mechanism: mech, Domain: 1024,
		Epoch: time.Hour, Epsilon: 0.1, Shards: 4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	in.Start()
	defer in.Close()
	batch := make([]Event, 1024)
	for i := range batch {
		batch[i] = Event{Stream: "clicks", Bucket: (i * 17) % 1024}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Ingest("bench", batch); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNameHelpers(t *testing.T) {
	if got := EpochName("clicks", 42); got != "clicks@epoch-42" {
		t.Fatalf("EpochName = %q", got)
	}
	if got := LatestName("clicks"); got != "clicks@latest" {
		t.Fatalf("LatestName = %q", got)
	}
	if got := WindowName("clicks"); got != "clicks@window" {
		t.Fatalf("WindowName = %q", got)
	}
	if err := dphist.ValidateName(EpochName("clicks", 1)); err != nil {
		t.Fatalf("epoch names must be storable: %v", err)
	}
}
