package route

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"socialscope/internal/serve"
)

// maxBody bounds request and response bodies relayed through the router.
const maxBody = 32 << 20

// tryResult is the outcome of one try against one backend: either a
// transport error (err set) or a fully-read HTTP answer.
type tryResult struct {
	backend *Backend
	status  int
	header  http.Header
	body    []byte
	version uint64
	err     error
}

// relayedHeaders are the backend response headers the router passes
// through to its client.
var relayedHeaders = []string{
	"Content-Type",
	serve.HeaderVersion,
	serve.HeaderCache,
	serve.HeaderRetryAfterMs,
	serve.HeaderTrace,
	"Retry-After",
}

// traceCtxKey carries a client's X-SS-Trace request header value
// through the retry/hedging machinery to each backend try, so the
// backend produces a span annex the router relays back.
type traceCtxKey struct{}

// withTrace propagates the trace request header, if present, onto ctx.
func withTrace(ctx context.Context, req *http.Request) context.Context {
	if v := req.Header.Get(serve.HeaderTrace); v != "" {
		ctx = context.WithValue(ctx, traceCtxKey{}, v)
	}
	return ctx
}

// tryOnce sends one request to b with a per-try timeout, reads the full
// body (a torn body is a transport failure, not a short answer), and
// reports the outcome to the backend's breaker and latency profile.
func (r *Router) tryOnce(ctx context.Context, b *Backend, method, uri string, body []byte) tryResult {
	tctx, cancel := context.WithTimeout(ctx, r.cfg.TryTimeout)
	defer cancel()
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(tctx, method, b.URL+uri, rd)
	if err != nil {
		return tryResult{backend: b, err: err}
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	if v, _ := ctx.Value(traceCtxKey{}).(string); v != "" {
		req.Header.Set(serve.HeaderTrace, v)
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		b.noteResult(false, 0, time.Now())
		return tryResult{backend: b, err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	lat := time.Since(start)
	if err != nil {
		b.noteResult(false, 0, time.Now())
		return tryResult{backend: b, err: err}
	}
	// 503 is alive-but-shedding: not a breaker failure (Retry-After
	// governs the pacing), and not a latency sample either.
	ok := resp.StatusCode < 500 || resp.StatusCode == http.StatusServiceUnavailable
	obsLat := time.Duration(0)
	if resp.StatusCode < 300 {
		obsLat = lat
	}
	b.noteResult(ok, obsLat, time.Now())
	var version uint64
	if h := resp.Header.Get(serve.HeaderVersion); h != "" {
		version, _ = strconv.ParseUint(h, 10, 64)
	}
	if version > 0 && resp.StatusCode < 300 {
		b.observeVersion(version)
	}
	return tryResult{
		backend: b,
		status:  resp.StatusCode,
		header:  resp.Header,
		body:    payload,
		version: version,
	}
}

// pickRead selects a backend for a read try: round-robin over healthy
// backends whose snapshot version satisfies effMin and whose breaker
// admits the request, falling back to a stale-but-alive backend when no
// fresh one is available (the caller owns the staleness policy).
func (r *Router) pickRead(effMin uint64, exclude *Backend) *Backend {
	n := len(r.backends)
	start := int(r.rr.Add(1) % uint64(n))
	var fallback *Backend
	for i := 0; i < n; i++ {
		b := r.backends[(start+i)%n]
		if b == exclude {
			continue
		}
		s := b.snapshot()
		if !s.Healthy {
			continue
		}
		if s.Version >= effMin {
			if b.allow(time.Now()) {
				return b
			}
			r.stats.breakerSkips.Add(1)
			continue
		}
		if fallback == nil {
			fallback = b
		}
	}
	if fallback != nil && fallback.allow(time.Now()) {
		return fallback
	}
	return nil
}

// goodRead reports whether a try produced a definitive answer worth
// relaying (any fully-read status below 500 — 4xx is the backend's
// answer, not a routing failure).
func goodRead(res tryResult) bool {
	return res.err == nil && res.status < 500
}

// hedgedRead runs one read try against primary and, if it outlives the
// configured quantile of the primary's latency histogram, hedges a second
// try to a different backend. The first definitive answer wins; the
// straggler finishes into a buffered channel and is dropped (its breaker
// bookkeeping still lands in tryOnce).
func (r *Router) hedgedRead(ctx context.Context, primary *Backend, method, uri string, body []byte, effMin uint64) tryResult {
	ch := make(chan tryResult, 2)
	go func() { ch <- r.tryOnce(ctx, primary, method, uri, body) }()
	inflight := 1
	var hedgeC <-chan time.Time
	if !r.cfg.DisableHedging {
		if d, ok := primary.hedgeDelay(r.cfg.HedgeQuantile, r.cfg.HedgeMin, r.cfg.TryTimeout); ok {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	var first *tryResult
	for {
		select {
		case res := <-ch:
			inflight--
			if goodRead(res) {
				if res.backend != primary {
					r.stats.hedgeWins.Add(1)
				}
				return res
			}
			if inflight == 0 {
				if first != nil && first.err == nil && res.err != nil {
					return *first
				}
				return res
			}
			first = &res
		case <-hedgeC:
			hedgeC = nil
			if sec := r.pickRead(effMin, primary); sec != nil {
				r.stats.hedges.Add(1)
				inflight++
				go func() { ch <- r.tryOnce(ctx, sec, method, uri, body) }()
			}
		case <-ctx.Done():
			return tryResult{err: ctx.Err()}
		}
	}
}

// serveRead answers /search, /query, /recommend and /stats by routing
// to a replica, with budgeted retries, hedging and the monotonic-read
// token. When only stale replicas can answer, the freshest stale answer
// is served explicitly marked (X-SS-Stale: true) after the staleness
// budget runs out — degraded, never silent.
func (r *Router) serveRead(w http.ResponseWriter, req *http.Request) {
	r.stats.reads.Add(1)
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	effMin := r.token.Load()
	if h := req.Header.Get(serve.HeaderMinVersion); h != "" {
		if v, perr := strconv.ParseUint(h, 10, 64); perr == nil && v > effMin {
			effMin = v
		}
	}
	ctx := withTrace(req.Context(), req)
	uri := req.URL.RequestURI()
	staleBy := time.Now().Add(r.cfg.StalenessWait)

	var last tryResult
	var stale *tryResult
	for try := 0; ; try++ {
		if b := r.pickRead(effMin, nil); b != nil {
			last = r.hedgedRead(ctx, b, req.Method, uri, body, effMin)
		} else {
			last = tryResult{err: errNoBackend}
		}
		switch {
		case last.err == nil && last.status < 300 && last.version >= effMin:
			r.advanceToken(last.version)
			r.relay(w, last, false)
			return
		case last.err == nil && last.status < 300:
			// A success evaluated below the monotonic token: remember the
			// freshest such answer, retry within the staleness budget, then
			// degrade explicitly.
			if stale == nil || last.version > stale.version {
				cp := last
				stale = &cp
			}
			if time.Now().After(staleBy) {
				try = r.cfg.Retries // budget spent: degrade now
			} else {
				r.stats.staleRedirects.Add(1)
			}
		case goodRead(last):
			// Definitive 4xx from the backend: its answer, relay as-is.
			r.relay(w, last, false)
			return
		}
		if try >= r.cfg.Retries || ctx.Err() != nil ||
			!sleepCtx(ctx, r.backoff(try, retryHint(last))) {
			break
		}
		r.stats.retries.Add(1)
	}
	if stale != nil {
		r.stats.staleServed.Add(1)
		r.advanceToken(stale.version)
		r.relay(w, *stale, true)
		return
	}
	r.stats.readErrors.Add(1)
	if last.err != nil {
		status := http.StatusBadGateway
		if ctx.Err() != nil || errors.Is(last.err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		writeError(w, status, last.err)
		return
	}
	r.relay(w, last, false)
}

// serveWrite forwards POST /apply to the leader, retrying only when the
// write provably did not apply: 409 (a follower answered — the leader
// view was stale), 503 (admission shed), or a transport error that
// occurred before the request was sent. A possibly-applied failure
// (timeout or torn response after send) is surfaced to the client —
// retrying it could double-apply the batch.
func (r *Router) serveWrite(w http.ResponseWriter, req *http.Request) {
	r.stats.writes.Add(1)
	body, err := io.ReadAll(io.LimitReader(req.Body, maxBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := withTrace(req.Context(), req)
	uri := req.URL.RequestURI()
	var last tryResult
	for try := 0; ; try++ {
		leader := r.writeTarget(ctx)
		if leader == nil {
			last = tryResult{err: errLeaderGone}
		} else {
			last = r.tryOnce(ctx, leader, http.MethodPost, uri, body)
			if last.err == nil && last.status < 300 {
				r.advanceToken(last.version)
				r.relay(w, last, false)
				return
			}
			if !writeRetryable(last) {
				break
			}
			// The leader view is stale (409: a follower answered) or the
			// leader may be down (unsent transport error): refresh the view
			// so the next try's writeTarget can fail over.
			r.probe(leader)
		}
		if try >= r.cfg.Retries || ctx.Err() != nil ||
			!sleepCtx(ctx, r.backoff(try, retryHint(last))) {
			break
		}
		r.stats.retries.Add(1)
	}
	r.stats.writeErrs.Add(1)
	if last.err != nil {
		switch {
		case errors.Is(last.err, errLeaderGone):
			writeError(w, http.StatusServiceUnavailable, last.err)
		case ctx.Err() != nil || errors.Is(last.err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, last.err)
		default:
			writeError(w, http.StatusBadGateway, last.err)
		}
		return
	}
	r.relay(w, last, false)
}

// writeTarget returns the healthy leader, triggering failover first
// when the view has none.
func (r *Router) writeTarget(ctx context.Context) *Backend {
	if l := r.Leader(); l != nil && l.snapshot().Healthy {
		return l
	}
	if r.cfg.DisableFailover {
		// No automatic promotion: aim at whatever still claims leadership
		// (it may answer) and let the retry budget decide.
		return r.Leader()
	}
	return r.failover(ctx, r.Leader())
}

// writeRetryable reports whether a failed write try provably did not
// apply and may be retried.
func writeRetryable(res tryResult) bool {
	if res.err != nil {
		return unsent(res.err)
	}
	return res.status == http.StatusConflict || res.status == http.StatusServiceUnavailable
}

// unsent reports whether err happened before the request reached the
// backend — a dial failure, real or injected. Only these make a write
// safe to retry.
func unsent(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// relay writes a backend answer through to the client, passing through
// the wire headers and optionally marking the body stale.
func (r *Router) relay(w http.ResponseWriter, res tryResult, stale bool) {
	for _, h := range relayedHeaders {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if stale {
		w.Header().Set(serve.HeaderStale, "true")
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// retryHint extracts the backend's millisecond Retry-After hint, if the
// last answer carried one.
func retryHint(res tryResult) time.Duration {
	if res.header == nil {
		return 0
	}
	ms, err := strconv.ParseInt(res.header.Get(serve.HeaderRetryAfterMs), 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// sleepCtx sleeps d unless ctx ends first; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
