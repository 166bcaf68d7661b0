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
// handles, resolved by their constructors; /metrics is the one view over
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
