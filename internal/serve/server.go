package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/topk"
)

// maxRequestBody bounds the JSON bodies of POST /query and /apply;
// larger requests get 413. It sits far above any real batch.
const maxRequestBody = 8 << 20

// maxResultK and maxQueryBytes bound the k and the query text of /search
// and /query; a request past either gets 400 before any evaluation.
const (
	maxResultK    = 1000
	maxQueryBytes = 4096
)

// maxApplyMutations bounds the mutations of one /apply request; a larger
// batch gets 413. It sits far above any real batch (the coalescer flushes
// at DefaultMaxBatch).
const maxApplyMutations = 4096

// Config parameterizes a Server. The zero value serves with sane
// defaults: 2s request deadline, DefaultCacheEntries cache,
// DefaultMaxBatch write coalescing, DefaultMaxConcurrent admission.
type Config struct {
	// RequestTimeout bounds each request's evaluation (default 2s). The
	// deadline propagates into the engine's top-k accumulation loops via
	// the request context.
	RequestTimeout time.Duration
	// CacheEntries bounds the result cache (default
	// DefaultCacheEntries); DisableCache turns caching off entirely.
	CacheEntries int
	DisableCache bool
	// MaxBatch is the buffered mutation count that triggers an immediate
	// coalescer flush (default DefaultMaxBatch); FlushInterval bounds how
	// long a write waits for company (default DefaultFlushInterval).
	MaxBatch      int
	FlushInterval time.Duration
	// MaxConcurrent and MaxQueue shape admission control (defaults
	// DefaultMaxConcurrent / DefaultMaxQueue).
	MaxConcurrent int
	MaxQueue      int
	// Obs is the metrics registry the server (and its cache, coalescer
	// and limiter) record into and /metrics exposes — obs.Default when
	// nil. Handles are resolved once at construction; the request hot
	// path touches only lock-free atomics.
	Obs *obs.Registry
	// TraceLogEvery samples 1-in-N requests onto a structured "ss.trace"
	// slog line carrying the full span annex (0 disables). Clients get a
	// trace regardless of sampling by sending an X-SS-Trace request
	// header; the annex comes back in the same response header.
	TraceLogEvery int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: profiles are operator tooling, not a public API). Profile
	// endpoints bypass the per-request timeout — a 30s CPU profile must
	// outlive a 2s request budget.
	EnablePprof bool
}

// Server is the HTTP query-serving subsystem over one Engine. Create
// with New, expose with Handler (or Serve), release with Shutdown or
// Close.
type Server struct {
	eng     *socialscope.Engine
	cfg     Config
	cache   *Cache
	coal    *Coalescer
	limiter *Limiter
	met     *serverMetrics
	mux     *http.ServeMux
	httpSrv *http.Server
	started time.Time
}

// New builds a server over the engine. The engine may already be serving
// other callers; the server adds no constraints beyond Engine's own
// concurrency contract.
func New(eng *socialscope.Engine, cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		coal:    NewCoalescer(eng, cfg.MaxBatch, cfg.FlushInterval, cfg.Obs),
		limiter: NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.Obs),
		met:     newServerMetrics(cfg.Obs),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if !cfg.DisableCache {
		s.cache = NewCache(cfg.CacheEntries, cfg.Obs)
	}
	s.mux.HandleFunc("GET /healthz", s.instrumented("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /stats", s.instrumented("stats", s.handleStats))
	s.mux.HandleFunc("GET /search", s.instrumented("search", s.limited(s.handleSearch)))
	s.mux.HandleFunc("POST /query", s.instrumented("query", s.limited(s.handleQuery)))
	s.mux.HandleFunc("GET /recommend", s.instrumented("recommend", s.limited(s.handleRecommend)))
	s.mux.HandleFunc("POST /apply", s.instrumented("apply", s.limited(s.handleApply)))
	s.mux.HandleFunc("POST /promote", s.instrumented("promote", s.handlePromote))
	s.mux.Handle("GET /metrics", s.met.reg.Handler())
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Constructed here, not in Serve, so Shutdown never races the Serve
	// goroutine's startup: a signal arriving before Serve runs still finds
	// a server to shut down (whose Serve then returns ErrServerClosed
	// immediately).
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s
}

// Handler returns the routed handler with per-request deadlines and
// admission control applied. /healthz and /stats bypass admission so
// they stay responsive under overload — that is when they matter most.
// /debug/pprof/ bypasses the deadline: a 30-second CPU profile must
// outlive the request budget.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.EnablePprof && strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
			s.mux.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		s.mux.ServeHTTP(w, r.WithContext(ctx))
	})
}

// limited wraps a handler in the admission limiter. Sheds carry a
// Retry-After hint so callers back off instead of hammering.
func (s *Server) limited(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := s.limiter.Acquire(r.Context())
		if err != nil {
			s.writeStatusError(w, err)
			return
		}
		defer release()
		h(w, r)
	}
}

// writeStatusError maps err through statusFor and, on a 503 shed,
// attaches the backpressure hint: the standard Retry-After (whole
// seconds, never below 1) plus the millisecond-precision
// X-SS-Retry-After-Ms the router's backoff actually consumes. The hint
// is the write coalescer's flush interval — the natural period at which
// admission pressure drains.
func (s *Server) writeStatusError(w http.ResponseWriter, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		hint := s.coal.interval
		secs := int(hint / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		w.Header().Set(HeaderRetryAfterMs, strconv.FormatInt(hint.Milliseconds(), 10))
	}
	writeError(w, status, err)
}

// Serve accepts connections on ln until Shutdown. It returns the error
// from the underlying http.Server (http.ErrServerClosed after a clean
// Shutdown).
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown drains gracefully: stop accepting, wait for in-flight
// requests (bounded by ctx), then flush the write coalescer so no
// accepted mutation is lost.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.coal.Stop()
	return err
}

// Close releases the server's background resources without a listener
// (the Handler-only usage, e.g. under httptest).
func (s *Server) Close() { s.coal.Stop() }

// Engine returns the served engine.
func (s *Server) Engine() *socialscope.Engine { return s.eng }

// parseQueryRequest extracts a QueryRequest from GET parameters
// (/search) or a JSON body (/query) and holds it to the request caps.
func parseQueryRequest(r *http.Request) (QueryRequest, error) {
	req, err := decodeQueryRequest(r)
	switch {
	case err != nil:
		return QueryRequest{}, err
	case req.K > maxResultK:
		return QueryRequest{}, fmt.Errorf("serve: k %d over the limit of %d", req.K, maxResultK)
	case len(req.Query) > maxQueryBytes:
		return QueryRequest{}, fmt.Errorf("serve: query of %d bytes over the limit of %d", len(req.Query), maxQueryBytes)
	case req.Alpha != nil && !(*req.Alpha >= 0 && *req.Alpha <= 1): // NaN fails both
		return QueryRequest{}, fmt.Errorf("serve: alpha %g outside [0, 1]", *req.Alpha)
	}
	return req, nil
}

func decodeQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	if r.Method == http.MethodPost {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return QueryRequest{}, fmt.Errorf("serve: bad request body: %w", err)
		}
		return req, nil
	}
	userStr := r.FormValue("user")
	if userStr == "" {
		return QueryRequest{}, errors.New("serve: missing user parameter")
	}
	uid, err := strconv.ParseInt(userStr, 10, 64)
	if err != nil {
		return QueryRequest{}, fmt.Errorf("serve: bad user parameter: %w", err)
	}
	req.User = graph.NodeID(uid)
	req.Query = r.FormValue("q")
	if ks := r.FormValue("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			return QueryRequest{}, fmt.Errorf("serve: bad k parameter: %w", err)
		}
		req.K = k
	}
	if as := r.FormValue("alpha"); as != "" {
		a, err := strconv.ParseFloat(as, 64)
		if err != nil {
			return QueryRequest{}, fmt.Errorf("serve: bad alpha parameter: %w", err)
		}
		req.Alpha = &a
	}
	return req, nil
}

// handleSearch answers GET /search?user=&q=&k=&alpha=[&nocache=1].
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.answerQuery(w, r)
}

// handleQuery answers POST /query with a QueryRequest body.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	s.answerQuery(w, r)
}

func (s *Server) answerQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	q, err := discovery.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.K > 0 {
		q.K = req.K
	}
	if req.Alpha != nil {
		q.Alpha = *req.Alpha
	}
	version := s.eng.Version()
	bodyVersion := version // what the served body was evaluated against
	compute := func() ([]byte, bool, error) {
		resp, err := s.eng.QueryCtx(r.Context(), req.User, q)
		if err != nil {
			return nil, false, err
		}
		// The response carries the exact snapshot version the evaluation
		// read — which may be newer than this request's cache key if an
		// Apply landed in between.
		bodyVersion = resp.Version
		body, err := encodeSearchResponse(resp.Version, q, resp, statsWire(resp.Stats))
		if err != nil {
			return nil, false, err
		}
		// Store only if the evaluation read the keyed version: every name
		// in the body resolves against resp.MSG.Snapshot, the snapshot
		// resp.Version stamps.
		store := resp.Version == version
		obs.SpanFrom(r.Context()).SetBool("cache_veto", !store)
		return body, store, nil
	}
	s.respondCached(w, r, cacheKey{
		version: version,
		kind:    "search",
		user:    req.User,
		query:   NormalizeQuery(q),
	}, compute, &bodyVersion)
}

// statsWire shapes an evaluation's work report for the wire; nil when the
// query did not go through the index.
func statsWire(st *socialscope.SearchStats) *QueryStatsWire {
	if st == nil {
		return nil
	}
	return &QueryStatsWire{
		Strategy:        st.Strategy.String(),
		PostingsScanned: st.PostingsScanned,
		ExactScores:     st.ExactScores,
		Candidates:      st.Candidates,
		EarlyTerminated: st.EarlyTerminated,
	}
}

// handleRecommend answers GET /recommend?user=&variant=stepwise|pattern.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	userStr := r.FormValue("user")
	uid, err := strconv.ParseInt(userStr, 10, 64)
	if userStr == "" || err != nil {
		writeError(w, http.StatusBadRequest, errors.New("serve: missing or bad user parameter"))
		return
	}
	user := graph.NodeID(uid)
	variant := discovery.CFStepwise
	switch v := r.FormValue("variant"); v {
	case "", "stepwise":
	case "pattern":
		variant = discovery.CFPattern
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown variant %q", v))
		return
	}
	version := s.eng.Version()
	bodyVersion := version
	compute := func() ([]byte, bool, error) {
		recs, err := s.eng.RecommendCtx(r.Context(), user, variant)
		if err != nil {
			return nil, false, err
		}
		g := s.eng.Graph()
		// If the engine advanced mid-evaluation, label the body with the
		// post-evaluation version (best effort — CF reads the then-current
		// graph) and veto the store; when the version is unchanged around
		// the evaluation, the label is exact.
		after := s.eng.Version()
		bodyVersion = after
		body, err := encodeRecommendResponse(after, user, variant.String(), recs, g)
		if err != nil {
			return nil, false, err
		}
		return body, after == version, nil
	}
	s.respondCached(w, r, cacheKey{
		version: version,
		kind:    "recommend",
		user:    user,
		query:   variant.String(),
	}, compute, &bodyVersion)
}

// respondCached answers through the result cache (unless disabled or
// bypassed with ?nocache=1) and reports the outcome in the X-SS-Cache
// header — kept out of the body so cached and uncached bodies stay
// byte-identical. bodyVersion points at the version the served body was
// evaluated against: updated by compute when it runs here; for hits it
// keeps the key version, which is exactly what stored bodies were
// evaluated at (a mid-compute version bump vetoes the store). A shared
// flight whose leader straddled a bump may label the header with the key
// version while the body carries the exact one — the body is
// authoritative.
func (s *Server) respondCached(w http.ResponseWriter, r *http.Request,
	key cacheKey, compute func() ([]byte, bool, error), bodyVersion *uint64) {
	var (
		body    []byte
		outcome Outcome
		err     error
	)
	if s.cache == nil || r.FormValue("nocache") != "" {
		outcome = OutcomeBypass
		body, _, err = compute()
	} else {
		body, outcome, err = s.cache.Do(r.Context(), key, compute)
	}
	if err != nil {
		s.writeStatusError(w, err)
		return
	}
	sp := obs.SpanFrom(r.Context())
	sp.SetString("cache", string(outcome))
	sp.SetUint("version", *bodyVersion)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderCache, string(outcome))
	w.Header().Set(HeaderVersion, strconv.FormatUint(*bodyVersion, 10))
	w.Write(body)
}

// handleApply folds POST /apply mutation batches into the engine through
// the write coalescer.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	var req ApplyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if len(req.Mutations) > maxApplyMutations {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: %d mutations over the limit of %d", len(req.Mutations), maxApplyMutations))
		return
	}
	muts := make([]graph.Mutation, 0, len(req.Mutations))
	for i, mw := range req.Mutations {
		m, err := mw.Mutation()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("mutation %d: %w", i, err))
			return
		}
		muts = append(muts, m)
	}
	out, err := s.coal.Enqueue(r.Context(), muts)
	if err != nil {
		s.writeStatusError(w, err)
		return
	}
	sp := obs.SpanFrom(r.Context())
	sp.SetInt("mutations", int64(len(muts)))
	sp.SetInt("coalesced", int64(out.coalesced))
	sp.SetInt("batched", int64(out.batched))
	sp.SetUint("version", out.version)
	// The version header rides on writes too, so a routing tier updates
	// its monotonic-read token from acks without decoding bodies.
	w.Header().Set(HeaderVersion, strconv.FormatUint(out.version, 10))
	writeJSON(w, http.StatusOK, ApplyResponse{
		Version:   out.version,
		Applied:   len(muts),
		Coalesced: out.coalesced,
		Batched:   out.batched,
	})
}

// handleStats answers GET /stats with the engine facts; counters and
// gauges are on /metrics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	g := s.eng.Graph()
	writeJSON(w, http.StatusOK, StatsResponse{
		Version:   s.eng.Version(),
		MaxNodeID: g.MaxNodeID(),
		MaxLinkID: g.MaxLinkID(),
		UptimeSec: time.Since(s.started).Seconds(),
	})
}

// handleHealthz answers GET /healthz: role, snapshot version and (for
// followers) replication lag — the facts a routing tier's health
// checker builds membership from.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := HealthResponse{Status: "ok", Version: s.eng.Version(), Role: s.role()}
	if lag, ok := s.eng.ReplicationLag(); ok {
		h.Lag = &lag
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) role() string {
	if s.eng.IsFollower() {
		return "follower"
	}
	return "leader"
}

// handlePromote answers POST /promote: upgrade a follower to a
// writable leader after the previous leader died. The caller is the
// failover orchestrator (or operator) and owns the "leader is really
// dead" judgement; the engine still refuses when the WAL contradicts
// the drained tail. On a non-follower it reports the current role with
// 409 rather than failing a retried promotion.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.eng.IsFollower() {
		writeJSON(w, http.StatusConflict, PromoteResponse{Role: s.role(), Version: s.eng.Version()})
		return
	}
	if err := s.eng.Promote(); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Role: s.role(), Version: s.eng.Version()})
}

// statusFor maps evaluation errors to HTTP statuses: deadline and
// cancellation to 504 (the per-request budget ran out), admission
// rejection to 503, unknown users to 404, everything else to 422 (the
// request was syntactically fine but the engine rejected it).
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, discovery.ErrUnknownUser), errors.Is(err, topk.ErrUnknownUser):
		return http.StatusNotFound
	case errors.Is(err, socialscope.ErrFollower):
		// Writes against a read replica: the request is fine, this server
		// is the wrong one — retry against the leader (or /promote first).
		return http.StatusConflict
	}
	return http.StatusUnprocessableEntity
}

// bodyStatus maps a request-parsing error to 400, or to 413 when the
// body overran maxRequestBody.
func bodyStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}
