package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"socialscope/internal/obs"
)

// serverMetrics are the HTTP front end's registry handles plus the
// trace-sampling sequence. Cache, coalescer and limiter carry their own
// handles (see their Instrument methods); /metrics is the one view over
// all of them.
type serverMetrics struct {
	reg  *obs.Registry
	reqs *obs.CounterVec   // ss_http_requests_total{handler,code}
	lat  *obs.HistogramVec // ss_http_request_seconds{handler}
	seq  atomic.Uint64     // trace-log sampling sequence
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &serverMetrics{
		reg: reg,
		reqs: reg.CounterVec("ss_http_requests_total",
			"HTTP requests served, by handler and status code", "handler", "code"),
		lat: reg.HistogramVec("ss_http_request_seconds",
			"end-to-end request latency, by handler", nil, "handler"),
	}
}

// obsWriter wraps the ResponseWriter to capture the status code and, for
// clients that asked (by sending an X-SS-Trace request header), inject
// the span's JSON annex as the X-SS-Trace response header just before
// the header section is flushed — the latest point at which headers can
// still change, so the annex covers all evaluation stages.
type obsWriter struct {
	http.ResponseWriter
	sp     *obs.Span
	emit   bool // client asked for the trace annex
	status int
}

func (w *obsWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		if w.emit && w.sp != nil {
			w.ResponseWriter.Header().Set(HeaderTrace, w.sp.Annex())
		}
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *obsWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// instrumented wraps a handler with request metrics and per-request
// tracing. A span is created when the client sends the X-SS-Trace
// request header (the annex comes back in the response header) or when
// the request falls on the TraceLogEvery sampling grid (the annex goes
// to a structured slog line); the span rides the context, so every
// layer below — engine facade, top-k, discovery — annotates it without
// new plumbing. Untraced requests pay one histogram observation and one
// counter increment, nothing else.
func (s *Server) instrumented(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		wantHeader := r.Header.Get(HeaderTrace) != ""
		sampled := s.cfg.TraceLogEvery > 0 &&
			s.met.seq.Add(1)%uint64(s.cfg.TraceLogEvery) == 0
		var sp *obs.Span
		if wantHeader || sampled {
			sp = obs.NewSpan()
			sp.SetString("handler", name)
			r = r.WithContext(obs.WithSpan(r.Context(), sp))
		}
		ow := &obsWriter{ResponseWriter: w, sp: sp, emit: wantHeader}
		h(ow, r)
		if ow.status == 0 {
			ow.status = http.StatusOK
		}
		s.met.reqs.With(name, strconv.Itoa(ow.status)).Inc()
		s.met.lat.With(name).ObserveSince(start)
		if sampled {
			attrs := append(sp.SlogAttrs(), slog.Int("status", ow.status))
			slog.LogAttrs(r.Context(), slog.LevelInfo, "ss.trace", attrs...)
		}
	}
}

// Instrument points the cache's counters at reg (obs.Default when nil)
// and registers the entries gauge; returns the receiver for chaining.
// Called once at construction time, before any traffic.
func (c *Cache) Instrument(reg *obs.Registry) *Cache {
	if reg == nil {
		reg = obs.Default
	}
	c.hits = reg.Counter("ss_cache_hits_total", "result-cache hits")
	c.misses = reg.Counter("ss_cache_misses_total", "result-cache misses (led a compute)")
	c.shared = reg.Counter("ss_cache_shared_total",
		"misses that piggybacked on an identical in-flight compute")
	c.evictions = reg.Counter("ss_cache_evictions_total", "result-cache evictions")
	c.vetoes = reg.Counter("ss_cache_store_vetoes_total",
		"computed bodies not stored because the engine version advanced mid-compute or a newer version was already stored")
	reg.GaugeFunc("ss_cache_entries", "result-cache resident entries", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	return c
}

// Instrument points the coalescer's counters at reg (obs.Default when
// nil); returns the receiver for chaining.
func (c *Coalescer) Instrument(reg *obs.Registry) *Coalescer {
	if reg == nil {
		reg = obs.Default
	}
	c.flushes = reg.Counter("ss_coalescer_flushes_total", "write-coalescer flushes")
	c.requests = reg.Counter("ss_coalescer_requests_total", "apply requests accepted for coalescing")
	c.mutations = reg.Counter("ss_coalescer_mutations_total", "mutations accepted for coalescing")
	c.fallbacks = reg.Counter("ss_coalescer_fallbacks_total",
		"flushes that degraded to per-request applies after a combined-batch rejection")
	c.maxFlush = reg.Gauge("ss_coalescer_max_flush", "largest single flush, in mutations")
	c.batchSize = reg.Histogram("ss_coalescer_batch_size",
		"mutations per flush", obs.ExpBuckets(1, 2, 12))
	return c
}

// Instrument points the limiter's counters at reg (obs.Default when
// nil) and registers the occupancy gauges; returns the receiver.
func (l *Limiter) Instrument(reg *obs.Registry) *Limiter {
	if reg == nil {
		reg = obs.Default
	}
	l.admitted = reg.Counter("ss_limiter_admitted_total", "requests admitted past the limiter")
	l.rejected = reg.Counter("ss_limiter_rejected_total",
		"requests shed by the limiter (queue bound exceeded or caller deadline expired while queued)")
	reg.GaugeFunc("ss_limiter_inflight", "requests currently executing", func() float64 {
		return float64(len(l.slots))
	})
	reg.GaugeFunc("ss_limiter_queued", "requests waiting for an execution slot", func() float64 {
		return float64(l.queued.Load())
	})
	return l
}
