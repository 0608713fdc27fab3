package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"github.com/dphist/dphist"
)

var inf = math.Inf(1)

type relKey struct {
	ns, name string
	version  int
}

type nameKey struct{ ns, name string }

// Minted is one release the server handed out, decoded from its mint
// reply.
type Minted struct {
	Target  *Target
	Release dphist.Release
}

// Checker verifies every reply against what the server promised:
// query answers bit-exactly against dphist's own batch query on the
// decoded release whose version the reply names, mints by strategy,
// version and exact budget arithmetic, ingest by accepted count.
type Checker struct {
	mu        sync.Mutex
	releases  map[relKey]dphist.Release
	versions  map[nameKey]int
	remaining map[string]float64
	// early holds query replies naming a version whose mint reply has not
	// been checked yet (reads race re-mints on write-mixed); each is
	// checked when that mint arrives, and is a mismatch if it never does.
	early []earlyReply
	// lateFailed counts early replies that mismatched once checked.
	lateFailed int
	minted     []Minted
	mismatch   []string
	dstPool    sync.Pool
}

type earlyReply struct {
	key     relKey
	q       *Query
	answers []float64
}

// NewChecker returns a checker with no releases.
func NewChecker() *Checker {
	c := &Checker{}
	c.Reset()
	return c
}

// Reset forgets every release, version and budget: the server behind
// the checker restarted empty. Minted releases stay for accuracy.
func (c *Checker) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Replies still waiting for their mint can no longer get it.
	c.lateFailed += len(c.early)
	c.releases = map[relKey]dphist.Release{}
	c.versions = map[nameKey]int{}
	c.remaining = map[string]float64{}
	c.early = nil
}

// checkerState is a copy of what a server holds, to restore after a
// restart from a copied data dir.
type checkerState struct {
	releases  map[relKey]dphist.Release
	versions  map[nameKey]int
	remaining map[string]float64
}

func (c *Checker) save() checkerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := checkerState{map[relKey]dphist.Release{}, map[nameKey]int{}, map[string]float64{}}
	for k, v := range c.releases {
		s.releases[k] = v
	}
	for k, v := range c.versions {
		s.versions[k] = v
	}
	for k, v := range c.remaining {
		s.remaining[k] = v
	}
	return s
}

func (c *Checker) restore(s checkerState) {
	c.Reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range s.releases {
		c.releases[k] = v
	}
	for k, v := range s.versions {
		c.versions[k] = v
	}
	for k, v := range s.remaining {
		c.remaining[k] = v
	}
}

// Minted returns every release checked so far.
func (c *Checker) Minted() []Minted {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Minted(nil), c.minted...)
}

func (c *Checker) noteMismatch(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.mismatch) < 8 {
		c.mismatch = append(c.mismatch, err.Error())
	}
}

// Mismatches returns up to eight mismatch messages, for diagnosis.
func (c *Checker) Mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.mismatch...)
}

// LateFailures counts query replies that failed after their recorded
// outcome: replies that named a version no mint reply ever delivered,
// and replies that mismatched once their mint reply arrived.
func (c *Checker) LateFailures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.early) + c.lateFailed
}

// Reply checks a 2xx reply to req.
func (c *Checker) Reply(req *Req, body []byte) error {
	switch req.Class {
	case ClassQuery:
		return c.query(req.Query, body)
	case ClassMint, ClassAuto:
		return c.mint(req.Mint, body)
	default:
		return checkIngest(body)
	}
}

func (c *Checker) query(q *Query, body []byte) error {
	dst, _ := c.dstPool.Get().([]float64)
	defer func() { c.dstPool.Put(dst[:0]) }()
	version, answers, err := ParseQueryReply(body, dst[:0])
	dst = answers
	if err != nil {
		return err
	}
	if len(answers) != q.Specs() {
		return fmt.Errorf("%s/%s: %d answers for %d specs", q.Target.NS, q.Target.Name, len(answers), q.Specs())
	}
	key := relKey{q.Target.NS, q.Target.Name, version}
	c.mu.Lock()
	rel, ok := c.releases[key]
	if !ok && version > c.versions[nameKey{key.ns, key.name}] {
		c.early = append(c.early, earlyReply{key, q, append([]float64(nil), answers...)})
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s/%s: reply names version %d, never minted", key.ns, key.name, version)
	}
	return compareAnswers(rel, q, answers)
}

// compareAnswers recomputes q on rel with dphist's batch query and
// demands bit-identical answers.
func compareAnswers(rel dphist.Release, q *Query, got []float64) error {
	var want []float64
	var err error
	if q.Rects != nil {
		want, err = dphist.QueryRectsInto(nil, rel, q.Rects)
	} else {
		want, err = dphist.QueryBatchInto(nil, rel, q.Ranges)
	}
	if err != nil {
		return fmt.Errorf("%s/%s: reference query: %w", q.Target.NS, q.Target.Name, err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("%s/%s: answer %d is %v, release gives %v", q.Target.NS, q.Target.Name, i, got[i], want[i])
		}
	}
	return nil
}

// mintReply is the subset of the POST /v1/ns/{ns}/releases reply the
// checker reads.
type mintReply struct {
	Namespace string          `json:"namespace"`
	Name      string          `json:"name"`
	Version   int             `json:"version"`
	Strategy  string          `json:"strategy"`
	Release   json.RawMessage `json:"release"`
	Auto      *struct {
		Strategy string `json:"strategy"`
	} `json:"auto"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

func (c *Checker) mint(m *Mint, body []byte) error {
	var r mintReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("mint reply: %w", err)
	}
	t := m.Target
	if r.Namespace != t.NS || r.Name != t.Name {
		return fmt.Errorf("mint of %s/%s answered for %s/%s", t.NS, t.Name, r.Namespace, r.Name)
	}
	rel, err := dphist.DecodeRelease(r.Release)
	if err != nil {
		return fmt.Errorf("mint %s/%s: %w", t.NS, t.Name, err)
	}
	if got := rel.Strategy().String(); got != r.Strategy {
		return fmt.Errorf("mint %s/%s: release is %s, reply says %s", t.NS, t.Name, got, r.Strategy)
	}
	if m.Strategy == "auto" {
		if r.Auto == nil || r.Auto.Strategy != r.Strategy {
			return fmt.Errorf("auto mint %s/%s: no decision naming %s", t.NS, t.Name, r.Strategy)
		}
	} else if r.Strategy != m.Strategy || r.Auto != nil {
		return fmt.Errorf("mint %s/%s: asked %s, got %s", t.NS, t.Name, m.Strategy, r.Strategy)
	}
	if rel.Epsilon() != MintEps {
		return fmt.Errorf("mint %s/%s: epsilon %v, asked %v", t.NS, t.Name, rel.Epsilon(), MintEps)
	}
	key := relKey{t.NS, t.Name, r.Version}
	c.mu.Lock()
	defer c.mu.Unlock()
	nk := nameKey{t.NS, t.Name}
	if r.Version != c.versions[nk]+1 {
		return fmt.Errorf("mint %s/%s: version %d after %d", t.NS, t.Name, r.Version, c.versions[nk])
	}
	before, ok := c.remaining[t.NS]
	if !ok {
		before = Budget
	}
	if before-MintEps != r.BudgetRemaining {
		return fmt.Errorf("mint %s/%s: budget_remaining %v after %v, spent %v", t.NS, t.Name, r.BudgetRemaining, before, MintEps)
	}
	c.versions[nk] = r.Version
	c.remaining[t.NS] = r.BudgetRemaining
	c.releases[key] = rel
	c.minted = append(c.minted, Minted{Target: t, Release: rel})
	// Replies that named this version before its mint reply arrived.
	kept := c.early[:0]
	for _, e := range c.early {
		if e.key != key {
			kept = append(kept, e)
			continue
		}
		if err := compareAnswers(rel, e.q, e.answers); err != nil {
			c.lateFailed++
			if len(c.mismatch) < 8 {
				c.mismatch = append(c.mismatch, err.Error())
			}
		}
	}
	c.early = kept
	return nil
}

func checkIngest(body []byte) error {
	var r struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("ingest reply: %w", err)
	}
	if r.Accepted != IngestEvents {
		return fmt.Errorf("ingest accepted %d of %d events", r.Accepted, IngestEvents)
	}
	return nil
}

var errQueryReply = errors.New("malformed query reply")

// ParseQueryReply reads the version and the answers array of a
// /v1/query or /v1/query2d reply, appending the answers to dst. It reads
// only those two keys, so it costs a fraction of encoding/json on a
// 10,000-answer reply.
func ParseQueryReply(body []byte, dst []float64) (int, []float64, error) {
	i := bytes.Index(body, []byte(`"version":`))
	if i < 0 {
		return 0, dst, fmt.Errorf("%w: no version", errQueryReply)
	}
	i += len(`"version":`)
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	version, err := strconv.Atoi(string(body[i:j]))
	if err != nil {
		return 0, dst, fmt.Errorf("%w: version", errQueryReply)
	}
	k := bytes.Index(body, []byte(`"answers":[`))
	if k < 0 {
		return 0, dst, fmt.Errorf("%w: no answers", errQueryReply)
	}
	p := k + len(`"answers":[`)
	if p < len(body) && body[p] == ']' {
		return version, dst, nil
	}
	for {
		e := p
		for e < len(body) && body[e] != ',' && body[e] != ']' {
			e++
		}
		if e == len(body) || e == p {
			return 0, dst, fmt.Errorf("%w: answers not terminated", errQueryReply)
		}
		// The string aliases body only for the parse; it is not kept.
		v, err := strconv.ParseFloat(unsafe.String(&body[p], e-p), 64)
		if err != nil {
			return 0, dst, fmt.Errorf("%w: answer %q", errQueryReply, string(body[p:e]))
		}
		dst = append(dst, v)
		if body[e] == ']' {
			return version, dst, nil
		}
		p = e + 1
	}
}

// Accuracy is the RMSE of served releases against the true counts on a
// fixed seeded probe set, overall and per strategy.
type Accuracy struct {
	RMSE        float64
	PerStrategy map[string]float64
	Releases    int
}

// accuracyProbes is the probe-set size per dimension.
const accuracyProbes = 256

// MeasureAccuracy scores every minted release: 1-D releases on
// accuracyProbes seeded ranges, 2-D releases on as many rectangles of
// the grid of the given width. The probe set depends only on the shape,
// never on the run's seed, so every run scores the same queries.
func MeasureAccuracy(minted []Minted, counts []float64, grid int) Accuracy {
	rng := rngFor(0xacc, uint64(len(counts)))
	ranges := make([]dphist.RangeSpec, accuracyProbes)
	truth1 := make([]float64, accuracyProbes)
	prefix := make([]float64, len(counts)+1)
	for i, v := range counts {
		prefix[i+1] = prefix[i] + v
	}
	// Unattributed releases answer over ranks of the counts sorted
	// ascending, not over positions.
	sorted := slices.Clone(counts)
	slices.Sort(sorted)
	sortedPrefix := make([]float64, len(counts)+1)
	for i, v := range sorted {
		sortedPrefix[i+1] = sortedPrefix[i] + v
	}
	truthRanks := make([]float64, accuracyProbes)
	for i := range ranges {
		lo, hi := ordered(rng, len(counts))
		ranges[i] = dphist.RangeSpec{Lo: lo, Hi: hi}
		truth1[i] = prefix[hi] - prefix[lo]
		truthRanks[i] = sortedPrefix[hi] - sortedPrefix[lo]
	}
	rects := make([]dphist.RectSpec, accuracyProbes)
	truth2 := make([]float64, accuracyProbes)
	for i := range rects {
		x0, x1 := ordered(rng, grid)
		y0, y1 := ordered(rng, grid)
		rects[i] = dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1}
		for y := y0; y < y1; y++ {
			truth2[i] += prefix[y*grid+x1] - prefix[y*grid+x0]
		}
	}
	sq := map[string]float64{}
	n := map[string]int{}
	var total float64
	var count int
	for _, m := range minted {
		var got, truth []float64
		var err error
		if m.Target.Rect {
			got, err = dphist.QueryRectsInto(nil, m.Release, rects)
			truth = truth2
		} else {
			got, err = dphist.QueryBatchInto(nil, m.Release, ranges)
			truth = truth1
			if m.Release.Strategy() == dphist.StrategyUnattributed {
				truth = truthRanks
			}
		}
		if err != nil {
			continue // a release the checker already failed on
		}
		st := m.Release.Strategy().String()
		for i, v := range got {
			d := (v - truth[i]) * (v - truth[i])
			sq[st] += d
			total += d
		}
		n[st] += len(got)
		count += len(got)
	}
	acc := Accuracy{PerStrategy: map[string]float64{}, Releases: len(minted)}
	if count > 0 {
		acc.RMSE = math.Sqrt(total / float64(count))
	}
	for st, s := range sq {
		acc.PerStrategy[st] = math.Sqrt(s / float64(n[st]))
	}
	return acc
}
