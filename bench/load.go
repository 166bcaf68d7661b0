package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"socialscope/internal/graph"
	"socialscope/internal/serve"
)

// loadClients is the closed loop's width: callers of this system (a web
// front end, ssrouter) each wait for a reply before sending the next
// request, and the sandbox has two cores for generator and servers
// together, so two clients is the capacity point.
const loadClients = 2

// sample is one completed op.
type sample struct {
	win  int // window of the timed phase it completed in, -1 during warm-up
	lat  time.Duration
	read bool
	ok   bool
}

// ack is one acknowledged write: when it was acked and at which version.
type ack struct {
	at      time.Time
	version uint64
}

// client is one closed-loop caller: one generator, one keep-alive
// connection, one op in flight.
type client struct {
	gen  *generator
	base string
	hc   *http.Client
	tr   *tracer
	buf  bytes.Buffer

	samples     []sample
	busy        []time.Duration // per window: from this client's first send to its last reply
	yard        []time.Duration // this client's yardstick time at each window boundary
	genTime     time.Duration
	lastVersion uint64
	userBytes   int64          // request-body bytes of acked writes
	ackedLinks  []graph.LinkID // every link of every acked batch
	errs        []string       // first few failures, for the report
	onAck       func(ack)
}

func newClient(gen *generator, base string, tr *tracer) *client {
	xprt := http.DefaultTransport.(*http.Transport).Clone()
	xprt.MaxConnsPerHost = 1
	return &client{
		gen: gen, base: base, tr: tr,
		samples: make([]sample, 0, 1<<16),
		// The timeout only keeps a hung server from hanging the benchmark;
		// the latency limit ops are judged by is requestLimit.
		hc: &http.Client{Transport: xprt, Timeout: 5 * requestLimit},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(format string, args ...any) bool {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
	return false
}

// do sends one op and reports whether it succeeded: status 200 within
// requestLimit, body fully read, and a version that did not go back.
func (c *client) do(o op, opIndex int) bool {
	var req *http.Request
	var err error
	if o.kind == opApply {
		req, err = http.NewRequest(http.MethodPost, c.base+"/apply", bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+o.path, nil)
	}
	if err != nil {
		return c.fail("build request: %v", err)
	}
	spanID := -1
	if c.tr != nil {
		spanID = c.tr.begin("client", -1, opIndex)
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	start := time.Now()
	status, header, err := c.roundTrip(req)
	lat := time.Since(start)
	if c.tr != nil {
		note := "read"
		if o.kind == opApply {
			note = "write"
		}
		c.tr.end(spanID, note)
	}
	switch {
	case err != nil:
		return c.fail("%s: %v", req.URL.Path, err)
	case status != http.StatusOK:
		return c.fail("%s: status %d: %.200s", req.URL.Path, status, c.buf.String())
	case lat > requestLimit:
		return c.fail("%s: %v exceeds the %v request limit", req.URL.Path, lat, requestLimit)
	}
	version, err := strconv.ParseUint(header.Get(serve.HeaderVersion), 10, 64)
	if err != nil {
		return c.fail("%s: bad %s header: %v", req.URL.Path, serve.HeaderVersion, err)
	}
	// The router may degrade to an older answer only when it says so.
	if stale := header.Get(serve.HeaderStale) != ""; !stale && version < c.lastVersion {
		return c.fail("%s: version went back from %d to %d", req.URL.Path, c.lastVersion, version)
	} else if !stale {
		c.lastVersion = version
	}
	if o.kind == opApply {
		c.userBytes += int64(len(o.body))
		for _, m := range o.muts {
			c.ackedLinks = append(c.ackedLinks, m.Link.ID)
		}
		if c.onAck != nil {
			c.onAck(ack{at: time.Now(), version: version})
		}
	}
	return true
}

func (c *client) roundTrip(req *http.Request) (int, http.Header, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, resp.Header, nil
}

// window issues ops back to back for d, tagging them with window w.
func (c *client) window(w int, d time.Duration) {
	start := time.Now()
	for i := len(c.samples); ; i++ {
		g0 := time.Now()
		if g0.Sub(start) >= d {
			break
		}
		o := c.gen.next()
		t0 := time.Now()
		c.genTime += t0.Sub(g0)
		ok := c.do(o, i)
		c.samples = append(c.samples, sample{win: w, lat: time.Since(t0), read: o.kind.read(), ok: ok})
	}
	if w >= 0 {
		c.busy = append(c.busy, time.Since(start))
	}
}

// windowCount cuts the timed phase into windows.
const windowCount = 10

// barrier lets the clients of a loop meet between windows.
type barrier struct {
	mu      sync.Mutex
	n, here int
	release chan struct{}
}

func newBarrier(n int) *barrier { return &barrier{n: n, release: make(chan struct{})} }

func (b *barrier) wait() {
	b.mu.Lock()
	b.here++
	if b.here == b.n {
		b.here = 0
		close(b.release)
		b.release = make(chan struct{})
		b.mu.Unlock()
		return
	}
	ch := b.release
	b.mu.Unlock()
	<-ch
}

// runClosedLoop drives the clients through the warm-up and then
// windowCount windows that add up to timed. atWarm (if set) runs once,
// between warm-up and the first window, while every client waits. With
// calibrated set, every client runs the yardstick at each window
// boundary — all clients at once, the servers idle — so that each
// window's figures can be scaled by the speed the machine had around it.
func runClosedLoop(clients []*client, warm, timed time.Duration, calibrated bool, atWarm func()) {
	var wg sync.WaitGroup
	meet := newBarrier(len(clients))
	boundary := func(c *client, hook func()) {
		meet.wait()
		if hook != nil && c == clients[0] {
			hook()
		}
		meet.wait()
		if calibrated {
			c.yard = append(c.yard, yardstick())
			meet.wait()
		}
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.window(-1, warm)
			for w := 0; w < windowCount; w++ {
				hook := atWarm
				if w > 0 {
					hook = nil
				}
				boundary(c, hook)
				c.window(w, timed/windowCount)
			}
			boundary(c, nil)
		}(c)
	}
	wg.Wait()
}

// loadStats is the timed phase, reduced. Every figure exists twice: as
// measured, and scaled to the yardstick's reference speed window by
// window (the two coincide for an uncalibrated loop).
type loadStats struct {
	attempted, failed int
	speed             []float64 // machine speed around each window, 1 = reference
	opsPerS, rawOps   []float64 // per window, in time order
	reads, writes     []float64 // pooled latencies, sorted, µs, scaled
	rawReads          []float64 // as measured
}

// reduce pools the windows of the timed phase. A failed op counts as
// attempted and contributes no latency: it misses every latency limit
// by definition.
func reduce(clients []*client) loadStats {
	var ls loadStats
	for w := 0; w < windowCount; w++ {
		speed := 1.0
		if len(clients[0].yard) > 0 {
			var around time.Duration
			for _, c := range clients {
				around += c.yard[w] + c.yard[w+1]
			}
			speed = yardstickSpeed(around / time.Duration(2*len(clients)))
		}
		ls.speed = append(ls.speed, speed)
	}
	ls.rawOps = make([]float64, windowCount)
	for _, c := range clients {
		var ops [windowCount]int
		for _, s := range c.samples {
			if s.win < 0 {
				continue
			}
			ls.attempted++
			if !s.ok {
				ls.failed++
				continue
			}
			ops[s.win]++
			us := float64(s.lat.Nanoseconds()) / 1e3
			if s.read {
				ls.rawReads = append(ls.rawReads, us)
				ls.reads = append(ls.reads, us*ls.speed[s.win])
			} else {
				ls.writes = append(ls.writes, us*ls.speed[s.win])
			}
		}
		for w, n := range ops {
			ls.rawOps[w] += float64(n) / c.busy[w].Seconds()
		}
	}
	for w, rate := range ls.rawOps {
		ls.opsPerS = append(ls.opsPerS, rate/ls.speed[w])
	}
	for _, v := range [][]float64{ls.reads, ls.writes, ls.rawReads} {
		sort.Float64s(v)
	}
	return ls
}

// pct is the q-quantile of sorted by nearest rank.
func pct(sorted []float64, q float64) float64 {
	v, _ := percentile(sorted, q)
	return v
}
