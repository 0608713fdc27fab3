package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Workload names.
const (
	ReadInteractive = "read-interactive"
	ReadBulk        = "read-bulk"
	WriteMixed      = "write-mixed"
)

// Workloads lists every workload, in BENCHMARK.json order.
var Workloads = []string{ReadInteractive, ReadBulk, WriteMixed}

// Fixed shape of every run.
const (
	// setups is how many times a run launches the server and readies
	// it; setup_s is the median. The first launch serves the timed
	// window and the rest run between its parts.
	setups = 7
	// mintRounds mints every read-workload target this many times per
	// setup (the first round is part of setup_s), for mint latencies.
	mintRounds = 30
	// setupMintStrategy is the direct strategy whose setup mints time
	// the read workloads' mint latencies. One strategy's latencies form
	// one cluster; the median of a mix of strategies would fall between
	// two clusters and jump from one to the other from run to run.
	setupMintStrategy = "universal"
	// setupIngests is how many ingest batches each read-workload setup
	// sends, for ingest latency on an idle pipeline.
	setupIngests = 50
	// parts is how many equal parts every timed phase is split into
	// (alternating with the parts of the window's other phase). Each
	// metric is the median of its per-part values, so a transient
	// disturbance of the shared machine moves a minority of the parts,
	// not the reported number; setup-time requests are pooled over the
	// launches instead.
	parts  = 15
	warmup = time.Second
	// phaseAttempts bounds how often an open-loop phase is re-measured
	// while its generator runs late.
	phaseAttempts = 3
	// interactiveRate is read-interactive's constant offered rate: a
	// third of what a net/http client sustained closed-loop on two
	// connections at the commit that defined the benchmark, and about a
	// fifth of what Conn reaches, so the server is moderately loaded.
	interactiveRate = 4500
	// interactiveBatch is the size of one dashboard query.
	interactiveBatch = 8
	// repeatShare of read-interactive requests refresh a recent batch.
	repeatShare = 0.2
	// interactiveBurst and writeBurst are the shares of the window spent
	// on the closed-loop read burst that measures query_max_rps.
	interactiveBurst = 0.3
	writeBurst       = 0.5
	writeRate        = 60 // write-mixed writes per second: 45 mints + 15 ingest batches
	mintShare        = 0.75
	readRate         = 1000 // write-mixed reads per second
)

// Config is one run.
type Config struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	ServerBin string
	// Scratch holds data dirs; it is emptied first and removed after.
	Scratch string
	Log     io.Writer
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's outcome.
type Result struct {
	Metrics   map[string]Metric
	Attempted int
	Failed    int
	// Mismatched counts replies that contradicted a decoded release or
	// the budget arithmetic: wrong outputs, not just failed requests.
	Mismatched int
	// Invalid names phases whose generator ran too late to trust.
	Invalid []string
	// Gen is the generator's record over the main timed phase.
	Gen GenSummary
	// HitRatio is the answer cache's hit ratio from /v1/stats at the end
	// (0 without a cache).
	HitRatio float64
}

// GenSummary is how faithfully the generator kept its schedule: time
// from due to hand-off (for a closed loop, from the previous reply to
// the next send), the wait for a free connection, and the most requests
// queued at once.
type GenSummary struct {
	LatenessP50, LatenessP99 float64 // µs
	ConnWaitP99              float64 // µs
	BacklogMax               int
}

type run struct {
	cfg    Config
	counts []float64
	csv    []byte
	res    Result
	// recs holds every recorder and chks every launch's checker, for the
	// run's attempted, failed and mismatched counts.
	recs []*Recorder
	chks []*Checker
}

// Run executes one run of cfg.Workload.
func Run(cfg Config) (Result, error) {
	if err := os.RemoveAll(cfg.Scratch); err != nil {
		return Result{}, err
	}
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(cfg.Scratch)
	r := &run{cfg: cfg, res: Result{Metrics: map[string]Metric{}}}
	var err error
	switch cfg.Workload {
	case ReadInteractive:
		err = r.interactive()
	case ReadBulk:
		err = r.bulk()
	case WriteMixed:
		err = r.writeMixed()
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.Workload, Workloads)
	}
	if err != nil {
		return Result{}, err
	}
	for _, rec := range r.recs {
		r.res.Attempted += rec.Attempted()
		r.res.Failed += rec.Failed()
	}
	for _, chk := range r.chks {
		r.res.Failed += chk.LateFailures()
		r.res.Mismatched += chk.LateFailures()
	}
	for _, rec := range r.recs {
		for k, n := range rec.failures {
			r.logf("failures %s=%d", k, n)
			if strings.HasSuffix(k, "/mismatch") {
				r.res.Mismatched += n
			}
		}
	}
	for _, chk := range r.chks {
		for _, m := range chk.Mismatches() {
			r.logf("mismatch: %s", m)
		}
	}
	return r.res, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.Log, format+"\n", args...)
}

func (r *run) put(name, unit string, v float64, note string) {
	r.res.Metrics[name] = Metric{Value: v, Unit: unit}
	r.logf("%-16s %14.6g %-8s %s", name, v, unit, note)
}

func (r *run) window() time.Duration {
	return time.Duration(r.cfg.Seconds * float64(time.Second))
}

// newRecorder returns a recorder whose outcomes count toward the run.
func (r *run) newRecorder() *Recorder {
	rec := NewRecorder()
	r.recs = append(r.recs, rec)
	return rec
}

// newDriver returns a driver with a fresh checker whose mismatches count
// toward the run. Each server launch gets its own: two servers can be up
// at once, each with its own releases, versions and budgets.
func (r *run) newDriver() *Driver {
	chk := NewChecker()
	r.chks = append(r.chks, chk)
	return &Driver{Check: chk}
}

// minted returns every release any launch's server handed out.
func (r *run) minted() []Minted {
	var all []Minted
	for _, chk := range r.chks {
		all = append(all, chk.Minted()...)
	}
	return all
}

// part is one part of a timed phase.
type part struct {
	rec     *Recorder
	gen     GenStats
	cpu     time.Duration
	elapsed float64 // s
}

// medianOver is the median over parts of f.
func medianOver[T any](ps []T, f func(T) float64) float64 {
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = f(p)
	}
	return Median(vals)
}

// partList formats f over parts, for the log.
func partList[T any](ps []T, f func(T) float64) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, " %.4g", f(p))
	}
	return b.String()
}

// timedParts runs the parts of one or more phases, interleaved: part i
// of every phase in turn, then between(i), then part i+1. Each part gets
// a fresh recorder and the server's CPU time around it. Interleaving
// spreads every phase over the whole window: the shared machine's speed
// wanders over tens of seconds, and a phase confined to one stretch of
// the window would carry that stretch's speed alone.
func (r *run) timedParts(srv *ServerProc, between func(part int) error, phases ...func(rec *Recorder) GenStats) ([][]part, error) {
	ps := make([][]part, len(phases))
	for j := range ps {
		ps[j] = make([]part, parts)
	}
	for i := 0; i < parts; i++ {
		for j, body := range phases {
			p := &ps[j][i]
			c0, err := ProcCPU(srv.Pid())
			if err != nil {
				return nil, err
			}
			start := time.Now()
			p.rec = r.newRecorder()
			p.gen = body(p.rec)
			p.elapsed = time.Since(start).Seconds()
			c1, err := ProcCPU(srv.Pid())
			if err != nil {
				return nil, err
			}
			p.cpu = c1 - c0
		}
		if err := between(i); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// launched is one server launch of a run.
type launched struct {
	srv  *ServerProc
	took float64 // s from launch to ready
	rec  *Recorder
	drv  *Driver // checks this server's replies
}

// setupsAround launches the server setups times with launch. The first
// launch serves window; the others run between the window's parts,
// spread evenly, and stop at once, so the setup-time figures sample the
// whole run rather than its two ends. setup_s is the median launch time.
func (r *run) setupsAround(launch func() (launched, error), window func(l launched, between func(part int) error) error, what string) ([]launched, error) {
	serving, err := launch()
	if err != nil {
		return nil, err
	}
	ls := []launched{serving}
	between := func(part int) error {
		if len(ls) == setups || (part+1)*(setups-1)/parts == part*(setups-1)/parts {
			return nil
		}
		l, err := launch()
		if err != nil {
			return err
		}
		ls = append(ls, l)
		return l.srv.Stop()
	}
	err = window(serving, between)
	if stopErr := serving.srv.Stop(); err == nil {
		err = stopErr
	}
	for err == nil && len(ls) < setups {
		err = between(parts - 1)
	}
	if err != nil {
		return nil, err
	}
	r.put("setup_s", "s", medianOver(ls, func(l launched) float64 { return l.took }),
		fmt.Sprintf("median of %d launches to %s (%d records)", setups, what, Records))
	return ls, nil
}

// readLaunch launches a read-workload server and sends one setup's
// requests: every target minted mintRounds times, then setupIngests
// ingest batches. Its launch time runs to the first round of mints
// answered. Its recorder times the setupMintStrategy and auto mints and
// the ingest batches.
func (r *run) readLaunch(targets []Target) func() (launched, error) {
	rng := setupRNG(r.cfg.Seed)
	return func() (launched, error) {
		srv, err := StartServer(r.cfg.ServerBin, r.csv, ReadDomain, ReadGrid, "", time.Hour)
		if err != nil {
			return launched{}, err
		}
		if err := srv.WaitReady(30 * time.Second); err != nil {
			srv.Kill()
			return launched{}, err
		}
		l := launched{srv: srv, rec: r.newRecorder(), drv: r.newDriver()}
		others := r.newRecorder()
		c := NewConn(srv.Addr)
		defer c.Close()
		for i, req := range setupReqs(rng, targets) {
			rec := l.rec
			if req.Class == ClassMint && req.Mint.Strategy != setupMintStrategy {
				rec = others // checked and counted, but not timed
			}
			l.drv.exec(c, req, time.Now(), rec)
			if i == len(targets)-1 {
				l.took = time.Since(srv.Started).Seconds()
			}
		}
		return l, nil
	}
}

// latency reports the median over recs of one class's p50, or its
// tail, in each recorder.
func (r *run) latency(name string, recs []*Recorder, c Class, tail bool, how string) {
	sums := make([]Summary, len(recs))
	for i, rec := range recs {
		sums[i] = rec.Latency(c)
	}
	pick, pct := func(s Summary) float64 { return s.P50 }, "p50"
	if tail {
		pick, pct = func(s Summary) float64 { return s.Tail }, fmt.Sprintf("p%.4g", sums[0].TailPct)
		r.logf("parts %s: %s", name, partList(sums, pick))
	}
	if len(recs) == 1 {
		r.put(name, "ms", pick(sums[0]), fmt.Sprintf("%s, %s of n=%d", how, pct, sums[0].N))
		return
	}
	r.put(name, "ms", medianOver(sums, pick), fmt.Sprintf("%s, median over %d of the %s of n=%d", how, len(recs), pct, sums[0].N))
}

// pooled merges the samples of recs into one recorder, so a percentile
// is taken over all of them at once.
func pooled(recs []*Recorder) *Recorder {
	all := NewRecorder()
	for _, rec := range recs {
		rec.mu.Lock()
		for c := range rec.lat {
			all.lat[c] = append(all.lat[c], rec.lat[c]...)
		}
		rec.mu.Unlock()
	}
	return all
}

// writeLatencies reports the write-path latencies over recs.
func (r *run) writeLatencies(recs []*Recorder, how string) {
	r.latency("mint_p50_ms", recs, ClassMint, false, how)
	r.latency("mint_p99_ms", recs, ClassMint, true, how)
	r.latency("auto_p50_ms", recs, ClassAuto, false, how)
	r.latency("ingest_p50_ms", recs, ClassIngest, false, how)
}

// finish reports the serving process's CPU per request over the timed
// parts, its peak RSS and its own counters.
func (r *run) finish(srv *ServerProc, ps []part) error {
	r.put("cpu_us_per_req", "us", medianOver(ps, func(p part) float64 {
		return p.cpu.Seconds() * 1e6 / float64(max(p.rec.Done.Load(), 1))
	}), fmt.Sprintf("median over %d parts of server utime+stime / completed requests", len(ps)))
	hwm, err := ProcPeakRSS(srv.Pid())
	if err != nil {
		return err
	}
	r.put("rss_mb", "MB", float64(hwm)/(1<<20), "server VmHWM")
	st, err := FetchStats(srv.Addr)
	if err != nil {
		return err
	}
	r.res.HitRatio = st.HitRatio()
	r.logf("server journal_seq=%d snapshot_seq=%d cache=%s", st.JournalSeq, st.SnapshotSeq, st.cacheNote())
	return nil
}

// accuracy reports range_rmse over the releases the server handed out.
func (r *run) accuracy(grid int, minted []Minted) {
	acc := MeasureAccuracy(minted, r.counts, grid)
	r.put("range_rmse", "count", acc.RMSE, fmt.Sprintf("over %d served releases x %d probes", acc.Releases, accuracyProbes))
	for st, v := range acc.PerStrategy {
		r.logf("  rmse %-13s %.6g", st, v)
	}
}

func (r *run) queryLatency(ps []part, how string) {
	recs := partRecs(ps)
	r.latency("query_p50_ms", recs, ClassQuery, false, how)
	r.latency("query_p99_ms", recs, ClassQuery, true, how)
}

func partRecs(ps []part) []*Recorder {
	recs := make([]*Recorder, len(ps))
	for i, p := range ps {
		recs[i] = p.rec
	}
	return recs
}

// throughput reports query_max_rps and ranges_per_s from closed-loop
// parts.
func (r *run) throughput(ps []part, how string) {
	r.logf("parts req/s: %s", partList(ps, func(p part) float64 { return float64(p.rec.Done.Load()) / p.elapsed }))
	r.logf("parts cpu us/req: %s", partList(ps, func(p part) float64 { return p.cpu.Seconds() * 1e6 / float64(max(p.rec.Done.Load(), 1)) }))
	r.put("query_max_rps", "req/s", medianOver(ps, func(p part) float64 { return float64(p.rec.Done.Load()) / p.elapsed }),
		fmt.Sprintf("%s, median over %d parts", how, len(ps)))
	r.put("ranges_per_s", "specs/s", medianOver(ps, func(p part) float64 { return float64(p.rec.specs) / p.elapsed }),
		fmt.Sprintf("ranges plus rects answered per second, %s", how))
}

// genReport prints a phase's generator figures, pooled over its parts,
// and reports whether the phase is valid. An open-loop phase is valid
// only while the generator's lateness p99 stays under half of the
// latency p99 it measures, both taken as medians over parts like the
// latency itself. A closed loop times each request from its send, so
// its generator gap costs throughput but does not enter the latency.
func (r *run) genReport(phase string, ps []part, latP99 float64, open bool) bool {
	var gs GenStats
	for _, p := range ps {
		gs.Lateness = append(gs.Lateness, p.gen.Lateness...)
		gs.ConnWait = append(gs.ConnWait, p.gen.ConnWait...)
		gs.BacklogMax = max(gs.BacklogMax, p.gen.BacklogMax)
		gs.BacklogEnd = max(gs.BacklogEnd, p.gen.BacklogEnd)
	}
	late := Summarize(gs.Lateness)
	wait := Summarize(gs.ConnWait)
	partLate := medianOver(ps, func(p part) float64 { return Summarize(p.gen.Lateness).Tail })
	r.res.Gen = GenSummary{LatenessP50: late.P50, LatenessP99: late.Tail, ConnWaitP99: wait.Tail, BacklogMax: gs.BacklogMax}
	r.logf("gen %-8s lateness p50=%.1fus p%.4g=%.1fus (n=%d; median part p99 %.1fus) conn_wait p%.4g=%.1fus backlog max=%d end=%d",
		phase, late.P50, late.TailPct, late.Tail, late.N, partLate, wait.TailPct, wait.Tail, gs.BacklogMax, gs.BacklogEnd)
	if open && partLate*1e-3 >= latP99/2 {
		r.logf("gen %-8s invalid: lateness p99 %.0fus is not well below latency p99 %.3gms", phase, partLate, latP99)
		return false
	}
	return true
}

// openPhase measures an open-loop phase interleaved with a closed-loop
// burst and returns the parts of each. While the generator ran too late
// to trust the open loop, both are measured again, up to phaseAttempts
// times; an open loop that never validates is reported invalid instead
// of as a number.
func (r *run) openPhase(srv *ServerProc, between func(part int) error, phase, how string, open, burst func(rec *Recorder) GenStats) ([]part, []part, error) {
	for attempt := 1; ; attempt++ {
		ps, err := r.timedParts(srv, between, open, burst)
		if err != nil {
			return nil, nil, err
		}
		main := ps[0]
		tail := medianOver(main, func(p part) float64 { return p.rec.Latency(ClassQuery).Tail })
		if r.genReport(phase, main, tail, true) {
			r.queryLatency(main, how)
			return main, ps[1], nil
		}
		if attempt == phaseAttempts {
			r.res.Invalid = append(r.res.Invalid, fmt.Sprintf("%s: generator lateness not well below the latency on %d attempts", phase, attempt))
			return main, ps[1], nil
		}
	}
}

func (r *run) interactive() error {
	r.csv, r.counts = Dataset(r.cfg.Seed, ReadDomain, Records)
	ls, err := r.setupsAround(r.readLaunch(InteractiveTargets), r.interactiveWindow, "ready and minted")
	if err != nil {
		return err
	}
	r.writeLatencies([]*Recorder{pooled(setupRecs(ls))}, fmt.Sprintf("setup requests of %d launches, pooled", setups))
	r.accuracy(ReadGrid, r.minted())
	return nil
}

func setupRecs(ls []launched) []*Recorder {
	recs := make([]*Recorder, len(ls))
	for i, l := range ls {
		recs[i] = l.rec
	}
	return recs
}

func (r *run) interactiveWindow(l launched, between func(part int) error) error {
	srv, drv := l.srv, l.drv
	conns := []*Conn{NewConn(srv.Addr), NewConn(srv.Addr)}
	defer conns[0].Close()
	defer conns[1].Close()
	next, burstNext := interactiveStream(r.cfg.Seed, streamInteractive), interactiveStream(r.cfg.Seed, streamInteractiveBurst)
	rng := rngFor(r.cfg.Seed, 0xa77)
	drv.Open(conns, interactiveRate, warmup, rng, next, r.newRecorder())

	total := r.window()
	burst := time.Duration(float64(total) * interactiveBurst)
	var mu sync.Mutex // both senders draw from the one stream
	main, closed, err := r.openPhase(srv, between, "main", fmt.Sprintf("open loop at %d req/s", interactiveRate), func(rec *Recorder) GenStats {
		return drv.Open(conns, interactiveRate, (total-burst)/parts, rng, next, rec)
	}, func(rec *Recorder) GenStats {
		return drv.Closed(conns, burst/parts, func(int) *Req {
			mu.Lock()
			defer mu.Unlock()
			return burstNext()
		}, rec)
	})
	if err != nil {
		return err
	}
	var reqs, repeats int
	for _, p := range main {
		reqs += int(p.rec.Done.Load())
		repeats += p.rec.repeats
	}
	r.logf("repeat_share %.4f of %d requests", float64(repeats)/float64(max(reqs, 1)), reqs)
	r.throughput(closed, "closed loop on 2 connections")
	return r.finish(srv, main)
}

func (r *run) bulk() error {
	r.csv, r.counts = Dataset(r.cfg.Seed, ReadDomain, Records)
	ls, err := r.setupsAround(r.readLaunch(BulkTargets), r.bulkWindow, "ready and minted")
	if err != nil {
		return err
	}
	r.writeLatencies([]*Recorder{pooled(setupRecs(ls))}, fmt.Sprintf("setup requests of %d launches, pooled", setups))
	r.accuracy(ReadGrid, r.minted())
	return nil
}

func (r *run) bulkWindow(l launched, between func(part int) error) error {
	srv, drv := l.srv, l.drv
	conns := []*Conn{NewConn(srv.Addr), NewConn(srv.Addr)}
	defer conns[0].Close()
	defer conns[1].Close()
	next := bulkStream(r.cfg.Seed, len(conns))
	drv.Closed(conns, warmup, next, r.newRecorder())
	phases, err := r.timedParts(srv, between, func(rec *Recorder) GenStats {
		return drv.Closed(conns, r.window()/parts, next, rec)
	})
	if err != nil {
		return err
	}
	ps := phases[0]
	r.queryLatency(ps, fmt.Sprintf("closed loop on 2 connections, %d specs per request", BulkSpecs))
	r.genReport("main", ps, r.res.Metrics["query_p99_ms"].Value, false)
	r.throughput(ps, "closed loop on 2 connections")
	return r.finish(srv, ps)
}

func (r *run) writeMixed() error {
	r.csv, r.counts = Dataset(r.cfg.Seed, WriteDomain, Records)
	targets := WriteTargets()
	pristine := filepath.Join(r.cfg.Scratch, "prefill")
	pre := r.newDriver()
	if err := r.prefill(pre, pristine, targets); err != nil {
		return err
	}
	base := pre.Check.save()
	k := 0
	launch := func() (launched, error) {
		dir := filepath.Join(r.cfg.Scratch, fmt.Sprintf("data-%d", k))
		k++
		if err := copyDir(pristine, dir); err != nil {
			return launched{}, err
		}
		drv := r.newDriver()
		drv.Check.restore(base)
		srv, err := StartServer(r.cfg.ServerBin, r.csv, WriteDomain, WriteGrid, dir, time.Second)
		if err != nil {
			return launched{}, err
		}
		if err := srv.WaitReady(30 * time.Second); err != nil {
			srv.Kill()
			return launched{}, err
		}
		if err := checkRecovered(drv.Check, srv.Addr, targets); err != nil {
			srv.Kill()
			return launched{}, err
		}
		return launched{srv: srv, took: time.Since(srv.Started).Seconds(), drv: drv}, nil
	}
	var minted []Minted
	_, err := r.setupsAround(launch, func(l launched, between func(part int) error) error {
		var err error
		minted, err = r.writeWindow(l, between, targets)
		return err
	}, "ready with the pre-filled data dir recovered")
	if err != nil {
		return err
	}
	r.accuracy(WriteGrid, minted)
	return nil
}

// writeWindow runs write-mixed's timed phases and returns the releases
// minted in them.
func (r *run) writeWindow(l launched, between func(part int) error, targets []Target) ([]Minted, error) {
	srv, drv := l.srv, l.drv
	wconn, rconn := NewConn(srv.Addr), NewConn(srv.Addr)
	defer wconn.Close()
	defer rconn.Close()
	writeNext := writeStream(r.cfg.Seed, targets)
	readNext, burstNext := writeReadStream(r.cfg.Seed, targets, streamWriteReads), writeReadStream(r.cfg.Seed, targets, streamWriteBurst)
	wrng, rrng := rngFor(r.cfg.Seed, 0x3a7e), rngFor(r.cfg.Seed, 0x3ea7)
	// mixed runs the write stream on wconn, recorded in wrec, beside the
	// reads on rconn.
	mixed := func(dur time.Duration, wrec *Recorder, reads func() GenStats) GenStats {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			drv.Open([]*Conn{wconn}, writeRate, dur, wrng, writeNext, wrec)
		}()
		gs := reads()
		wg.Wait()
		return gs
	}
	openReads := func(dur time.Duration, rec *Recorder) func() GenStats {
		return func() GenStats { return drv.Open([]*Conn{rconn}, readRate, dur, rrng, readNext, rec) }
	}
	warm := r.newRecorder()
	mixed(warmup, warm, openReads(warmup, warm))
	mintedBefore := len(drv.Check.Minted())

	total := r.window()
	burst := time.Duration(float64(total) * writeBurst)
	how := fmt.Sprintf("open loop at %d req/s beside %d writes/s", readRate, writeRate)
	main, closed, err := r.openPhase(srv, between, "reads", how, func(rec *Recorder) GenStats {
		return mixed((total-burst)/parts, rec, openReads((total-burst)/parts, rec))
	}, func(rec *Recorder) GenStats {
		return mixed(burst/parts, r.newRecorder(), func() GenStats {
			return drv.Closed([]*Conn{rconn}, burst/parts, func(int) *Req { return burstNext() }, rec)
		})
	})
	if err != nil {
		return nil, err
	}
	minted := drv.Check.Minted()[mintedBefore:]
	r.throughput(closed, "closed-loop reads on one connection beside the write stream")
	r.writeLatencies(partRecs(main), "open loop")
	return minted, r.finish(srv, main)
}

// prefill mints every target twice into a fresh data dir, checked by
// drv, and shuts the server down cleanly, leaving a snapshot plus
// journal for the timed servers to recover.
func (r *run) prefill(drv *Driver, dir string, targets []Target) error {
	srv, err := StartServer(r.cfg.ServerBin, r.csv, WriteDomain, WriteGrid, dir, time.Second)
	if err != nil {
		return err
	}
	if err := srv.WaitReady(30 * time.Second); err != nil {
		srv.Kill()
		return err
	}
	c := NewConn(srv.Addr)
	defer c.Close()
	rec := r.newRecorder()
	for _, req := range prefillReqs(r.cfg.Seed, targets) {
		drv.exec(c, req, time.Now(), rec)
	}
	return srv.Stop()
}

// checkRecovered lists each namespace and demands every target back at
// the version chk last saw minted.
func checkRecovered(chk *Checker, addr string, targets []Target) error {
	c := NewConn(addr)
	defer c.Close()
	listed := map[nameKey]int{}
	seen := map[string]bool{}
	for _, t := range targets {
		if seen[t.NS] {
			continue
		}
		seen[t.NS] = true
		status, body, err := c.Do("GET", "/v1/ns/"+t.NS+"/releases", nil)
		if err != nil || status != 200 {
			return fmt.Errorf("list %s after recovery: status %d: %v", t.NS, status, err)
		}
		var l struct {
			Releases []struct {
				Name    string `json:"name"`
				Version int    `json:"version"`
			} `json:"releases"`
		}
		if err := json.Unmarshal(body, &l); err != nil {
			return fmt.Errorf("list %s: %w", t.NS, err)
		}
		for _, e := range l.Releases {
			listed[nameKey{t.NS, e.Name}] = e.Version
		}
	}
	chk.mu.Lock()
	defer chk.mu.Unlock()
	for _, t := range targets {
		k := nameKey{t.NS, t.Name}
		if listed[k] != chk.versions[k] {
			return fmt.Errorf("recovered %s/%s at version %d, minted %d", t.NS, t.Name, listed[k], chk.versions[k])
		}
	}
	return nil
}

// Stats is the subset of GET /v1/stats the benchmark reads.
type Stats struct {
	JournalSeq  uint64 `json:"journal_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Cache is absent on a server without an answer cache; that means
	// "no cache", not an error.
	Cache *struct {
		Enabled  bool    `json:"enabled"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
}

// HitRatio is the answer cache's hit ratio, 0 without a cache.
func (s Stats) HitRatio() float64 {
	if s.Cache == nil || !s.Cache.Enabled {
		return 0
	}
	return s.Cache.HitRatio
}

func (s Stats) cacheNote() string {
	if s.Cache == nil || !s.Cache.Enabled {
		return "none"
	}
	return fmt.Sprintf("hit_ratio=%.4f", s.Cache.HitRatio)
}

// FetchStats reads GET /v1/stats.
func FetchStats(addr string) (Stats, error) {
	c := NewConn(addr)
	defer c.Close()
	status, body, err := c.Do("GET", "/v1/stats", nil)
	if err != nil || status != 200 {
		return Stats{}, fmt.Errorf("stats: status %d: %v", status, err)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return Stats{}, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
