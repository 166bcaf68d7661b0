package serve

import (
	"context"
	"sync"
	"time"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
)

// applyOutcome is what one /apply request learns from the flush that
// carried it.
type applyOutcome struct {
	version   uint64 // engine version after the flush
	coalesced int    // requests that shared the flush
	batched   int    // mutations in the whole flush
	err       error
}

// applyReq is one enqueued mutation batch waiting for a flush.
type applyReq struct {
	muts []graph.Mutation
	done chan applyOutcome // buffered; the flusher never blocks on it
}

// Coalescer buffers incoming mutation batches and flushes them into
// Engine.Apply as one combined batch, so concurrent small writes share
// one apply's fixed costs (snapshot headers, transient windows, the WAL
// record) — and the engine version bumps once per flush, not once per
// request, which keeps the result cache's version keys stable under
// write bursts.
//
// A flush happens when the buffered mutation count reaches MaxBatch or
// when the flush ticker fires, whichever comes first — the ticker bounds
// the latency any single write can be held for. If the combined batch is
// rejected (one request's mutations conflict with another's, or with the
// engine), the flush degrades to applying each request's batch
// individually so one bad request cannot poison the others; each request
// then learns its own outcome.
type Coalescer struct {
	eng      *socialscope.Engine
	maxBatch int
	interval time.Duration

	mu          sync.Mutex
	pending     []applyReq
	pendingMuts int
	stopped     bool

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	// registry handles, resolved by NewCoalescer
	flushes   *obs.Counter
	requests  *obs.Counter
	mutations *obs.Counter
	fallbacks *obs.Counter
	maxFlush  *obs.Gauge // high watermark: largest single flush
	batchSize *obs.Histogram
}

// DefaultMaxBatch is the buffered mutation count that flushes without
// waiting for the ticker: a few requests' worth, so a write burst shares
// one apply, yet no writer's ack waits behind an unbounded one.
const DefaultMaxBatch = 32

// DefaultFlushInterval bounds write latency when the configuration does
// not: long enough for concurrent writers to pile into one flush, short
// enough to stay invisible next to network latency.
const DefaultFlushInterval = 10 * time.Millisecond

// NewCoalescer starts a coalescer over the engine, recording into reg
// (obs.Default when nil). maxBatch <= 0 defaults to DefaultMaxBatch;
// interval <= 0 defaults to DefaultFlushInterval. Stop must be called
// to release the flusher.
func NewCoalescer(eng *socialscope.Engine, maxBatch int, interval time.Duration, reg *obs.Registry) *Coalescer {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if interval <= 0 {
		interval = DefaultFlushInterval
	}
	if reg == nil {
		reg = obs.Default
	}
	c := &Coalescer{
		eng:       eng,
		maxBatch:  maxBatch,
		interval:  interval,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		flushes:   reg.Counter("ss_coalescer_flushes_total", "write-coalescer flushes"),
		requests:  reg.Counter("ss_coalescer_requests_total", "apply requests accepted for coalescing"),
		mutations: reg.Counter("ss_coalescer_mutations_total", "mutations accepted for coalescing"),
		fallbacks: reg.Counter("ss_coalescer_fallbacks_total",
			"flushes that degraded to per-request applies after a combined-batch rejection"),
		maxFlush: reg.Gauge("ss_coalescer_max_flush", "largest single flush, in mutations"),
		batchSize: reg.Histogram("ss_coalescer_batch_size",
			"mutations per flush", obs.ExpBuckets(1, 2, 12)),
	}
	c.wg.Add(1)
	go c.loop()
	return c
}

// Enqueue hands a mutation batch to the coalescer and waits for the
// flush that carries it. The wait is bounded by the flush interval plus
// one Engine.Apply. If ctx expires first the call returns ctx.Err() —
// but the batch is already queued and will still be applied; a caller
// that must know the outcome retries idempotently (re-adding an element
// the engine absorbed is rejected loudly, not double-counted).
func (c *Coalescer) Enqueue(ctx context.Context, muts []graph.Mutation) (applyOutcome, error) {
	if len(muts) == 0 {
		return applyOutcome{version: c.eng.Version()}, nil
	}
	req := applyReq{muts: muts, done: make(chan applyOutcome, 1)}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return applyOutcome{}, context.Canceled
	}
	c.pending = append(c.pending, req)
	c.pendingMuts += len(muts)
	full := c.pendingMuts >= c.maxBatch
	c.mu.Unlock()
	c.requests.Inc()
	c.mutations.Add(uint64(len(muts)))
	if full {
		select {
		case c.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
	select {
	case out := <-req.done:
		return out, out.err
	case <-ctx.Done():
		return applyOutcome{}, ctx.Err()
	}
}

func (c *Coalescer) loop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			c.flush()
			return
		case <-c.kick:
			c.flush()
		case <-ticker.C:
			c.flush()
		}
	}
}

// flush applies everything pending as one batch, falling back to
// per-request application when the combined batch is rejected.
func (c *Coalescer) flush() {
	c.mu.Lock()
	reqs := c.pending
	nmuts := c.pendingMuts
	c.pending = nil
	c.pendingMuts = 0
	c.mu.Unlock()
	if len(reqs) == 0 {
		return
	}

	combined := make([]graph.Mutation, 0, nmuts)
	for _, r := range reqs {
		combined = append(combined, r.muts...)
	}
	err := c.eng.Apply(combined)
	// Count the flush before answering anyone, so a writer that reads
	// Stats after its ack always sees its own flush.
	c.flushes.Inc()
	c.maxFlush.Max(float64(nmuts))
	c.batchSize.Observe(float64(nmuts))
	if err == nil {
		v := c.eng.Version()
		for _, r := range reqs {
			r.done <- applyOutcome{version: v, coalesced: len(reqs), batched: nmuts}
		}
	} else if len(reqs) == 1 {
		reqs[0].done <- applyOutcome{err: err}
	} else {
		// Combined batch rejected: isolate the offender(s) by applying each
		// request's batch on its own.
		c.fallbacks.Inc()
		for _, r := range reqs {
			e := c.eng.Apply(r.muts)
			out := applyOutcome{version: c.eng.Version(), coalesced: 1, batched: len(r.muts), err: e}
			r.done <- out
		}
	}
}

// Stop flushes whatever is pending and releases the flusher goroutine.
// Subsequent Enqueue calls fail.
func (c *Coalescer) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}
