package bench

import (
	"bufio"
	"bytes"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Class is a request kind, for per-class latencies and failure counts.
type Class int

const (
	ClassQuery Class = iota
	ClassMint        // direct-strategy mint
	ClassAuto        // "strategy":"auto" mint
	ClassIngest
	nClasses
)

var classNames = [nClasses]string{"query", "mint", "auto", "ingest"}

func (c Class) String() string { return classNames[c] }

// Req is one request of a stream.
type Req struct {
	Class Class
	Path  string
	Body  []byte
	Query *Query
	Mint  *Mint
}

// QueryReq wraps a query batch.
func QueryReq(q *Query) *Req {
	return &Req{Class: ClassQuery, Path: q.Target.QueryPath(), Body: q.Body, Query: q}
}

// MintReq wraps a mint.
func MintReq(m *Mint) *Req {
	class := ClassMint
	if m.Strategy == "auto" {
		class = ClassAuto
	}
	return &Req{Class: class, Path: m.Target.MintPath(), Body: m.Body, Mint: m}
}

// IngestReq wraps an ingest batch.
func IngestReq(body []byte) *Req {
	return &Req{Class: ClassIngest, Path: "/v1/ns/" + IngestNS + "/ingest", Body: body}
}

// Conn is one keep-alive HTTP/1.1 connection to the server; it carries
// one request at a time. It writes each request and parses its reply on
// the calling goroutine, without net/http's per-connection reader and
// writer goroutines, so a request costs the generator one write and one
// wake-up on the reply: on a two-CPU machine shared with the server,
// every goroutine hand-off the generator saves is scheduling delay it
// does not add to the latency it measures.
type Conn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	buf  bytes.Buffer
}

// NewConn returns a connection to addr (host:port); it dials on first
// use.
func NewConn(addr string) *Conn { return &Conn{addr: addr} }

// Do sends one request and reads the whole reply. The returned body is
// valid until the next Do. After an error the connection is dropped and
// the next Do dials again.
func (c *Conn) Do(method, path string, body []byte) (int, []byte, error) {
	status, err := c.do(method, path, body)
	if err != nil {
		c.Close()
		return 0, nil, err
	}
	return status, c.buf.Bytes(), nil
}

func (c *Conn) do(method, path string, body []byte) (int, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if method != http.MethodGet {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.nc.Write(b); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close {
		c.Close()
	}
	return resp.StatusCode, nil
}

// Close drops the connection.
func (c *Conn) Close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc, c.br = nil, nil
	}
}

// Recorder collects one phase's exact latency samples and outcomes.
type Recorder struct {
	mu        sync.Mutex
	lat       [nClasses][]float64 // ms
	attempted [nClasses]int
	failures  map[string]int // "class/kind" -> count
	specs     int64
	repeats   int
	// Done counts completed requests; read it while the phase runs to
	// split a window.
	Done atomic.Int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{failures: map[string]int{}} }

// Add records one finished request. A failed request's latency is
// recorded as +Inf so it counts as over any latency limit.
func (r *Recorder) Add(req *Req, lat time.Duration, failure string) {
	ms := lat.Seconds() * 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[req.Class]++
	if failure != "" {
		r.failures[req.Class.String()+"/"+failure]++
		ms = inf
	} else if req.Query != nil {
		r.specs += int64(req.Query.Specs())
	}
	if req.Query != nil && req.Query.Repeat {
		r.repeats++
	}
	r.lat[req.Class] = append(r.lat[req.Class], ms)
	r.Done.Add(1)
}

// Latency summarizes one class's latencies in ms.
func (r *Recorder) Latency(c Class) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summarize(append([]float64(nil), r.lat[c]...))
}

// Attempted and Failed total over all classes.
func (r *Recorder) Attempted() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, a := range r.attempted {
		n += a
	}
	return n
}

// Failed is the number of failed requests over all classes.
func (r *Recorder) Failed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.failures {
		n += f
	}
	return n
}

// GenStats is how faithfully the generator kept its schedule in one
// open-loop phase.
type GenStats struct {
	Lateness   []float64 // µs from due time to hand-off to a connection queue
	ConnWait   []float64 // µs waiting in the queue for a free connection
	BacklogMax int       // most requests queued for a connection at once
	BacklogEnd int       // requests still queued when the schedule ended
}

// Driver sends streams on a fixed set of connections and checks every
// reply.
type Driver struct {
	Check *Checker
}

// exec sends req on c, checks the reply and records it with latency
// measured from start.
func (d *Driver) exec(c *Conn, req *Req, start time.Time, rec *Recorder) {
	status, body, err := c.Do(http.MethodPost, req.Path, req.Body)
	lat := time.Since(start)
	failure := ""
	switch {
	case err != nil:
		failure = "transport"
	case status < 200 || status > 299:
		failure = "status"
	default:
		if err := d.Check.Reply(req, body); err != nil {
			d.Check.noteMismatch(err)
			failure = "mismatch"
		}
	}
	rec.Add(req, lat, failure)
}

// Closed runs one closed loop per connection for dur: each sends its
// next request as soon as the previous reply is checked. Latency is
// per request, from send to checked reply. The returned lateness is the
// generator's own gap between a reply and the next send.
func (d *Driver) Closed(conns []*Conn, dur time.Duration, next func(worker int) *Req, rec *Recorder) GenStats {
	deadline := time.Now().Add(dur)
	var gs GenStats
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var gaps []float64
			var last time.Time
			for time.Now().Before(deadline) {
				req := next(w)
				send := time.Now()
				if !last.IsZero() {
					gaps = append(gaps, send.Sub(last).Seconds()*1e6)
				}
				d.exec(c, req, send, rec)
				last = time.Now()
			}
			mu.Lock()
			gs.Lateness = append(gs.Lateness, gaps...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return gs
}

// Open runs an open loop: Poisson arrivals at rate per second for dur,
// handed to whichever connection is free. Latency runs from each
// request's due time, so a stall also delays the requests queued
// behind it. The pacing sleeps with a blocking nanosleep: Go timers
// overshoot sub-millisecond sleeps by about a millisecond.
func (d *Driver) Open(conns []*Conn, rate float64, dur time.Duration, rng *rand.Rand, next func() *Req, rec *Recorder) GenStats {
	type item struct {
		req      *Req
		due, enq time.Time
	}
	// Sized to every request the schedule can send, so the scheduler
	// never blocks on a slow server: the backlog is measured, not felt.
	queue := make(chan item, int(rate*dur.Seconds()*1.5)+64)
	var gs GenStats
	var waitMu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				wait := time.Since(it.enq)
				waitMu.Lock()
				gs.ConnWait = append(gs.ConnWait, wait.Seconds()*1e6)
				waitMu.Unlock()
				d.exec(c, it.req, it.due, rec)
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	var at time.Duration
	lateness := make([]float64, 0, cap(queue))
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		req := next()
		due := start.Add(at)
		sleepUntil(due)
		now := time.Now()
		lateness = append(lateness, now.Sub(due).Seconds()*1e6)
		if n := len(queue); n > gs.BacklogMax {
			gs.BacklogMax = n
		}
		queue <- item{req, due, now}
	}
	gs.BacklogEnd = len(queue)
	close(queue)
	wg.Wait()
	gs.Lateness = lateness
	return gs
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}
