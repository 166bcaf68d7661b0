// Package route is SocialScope's fault-tolerant serving tier: an HTTP
// front end over a leader + N follower ssserve backends that routes
// around failure the way internal/serve routes around load. It
// comprises
//
//   - health-check-driven membership: every backend's role-aware
//     /healthz (role, snapshot version, replication lag) is polled on
//     an interval and folded into the routing view (health.go);
//   - read routing with per-try timeouts, budgeted retries with
//     jittered exponential backoff honoring Retry-After hints, hedged
//     requests once a try outlives a high quantile of the backend's
//     latency histogram, and a per-backend circuit breaker so a dead
//     replica stops costing a timeout per request (proxy.go,
//     breaker.go);
//   - explicit consistency: the router keeps a monotonic-read token —
//     the highest snapshot version any answer it relayed was evaluated
//     at — and selects backends that can satisfy it; when only stale
//     replicas remain it retries within a bounded staleness budget and
//     then degrades explicitly, serving the stale answer marked with
//     X-SS-Stale: true instead of erroring (never silently);
//   - write forwarding to the leader, and automatic failover when the
//     leader dies: the healthiest, most-caught-up follower is promoted
//     via POST /promote — safe to automate because promotion is
//     equivalent to crash-recovering the dead leader's directory (the
//     PR 7 guarantee), so the promoted state is exactly what the
//     leader's own reboot would have served.
//
// The chaos differential harness (chaos_test.go) proves the tier
// against internal/netfault's deterministic injection schedules with
// vfs.FaultFS underneath: no acknowledged write lost, the monotonic
// token never regresses, reads keep succeeding through any
// single-backend failure, and post-failover state digest-identical to
// crash recovery of the dead leader's directory.
package route

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"socialscope/internal/obs"
	"socialscope/internal/serve"
)

// Defaults for Config's zero values.
const (
	DefaultTryTimeout      = 1 * time.Second
	DefaultRetries         = 3
	DefaultBackoffBase     = 10 * time.Millisecond
	DefaultBackoffCap      = 500 * time.Millisecond
	DefaultHedgeQuantile   = 0.9
	DefaultHedgeMin        = 2 * time.Millisecond
	DefaultBreakerFails    = 3
	DefaultBreakerCooldown = 500 * time.Millisecond
	DefaultHealthEvery     = 250 * time.Millisecond
	DefaultStalenessWait   = 250 * time.Millisecond
	DefaultFailoverAfter   = 2
)

// Config parameterizes a Router. Backends is required; everything else
// has serviceable defaults.
type Config struct {
	// Backends lists the ssserve instances ("host:port" or full URLs).
	// Roles are discovered, not configured: the health checker asks.
	Backends []string
	// Client issues backend requests. Nil means a plain http.Client;
	// the chaos harness plugs a netfault.Transport in here. The client
	// must not set a global timeout — the router owns per-try deadlines.
	Client *http.Client
	// TryTimeout bounds each individual try (default 1s). The request's
	// own deadline still caps the total across tries.
	TryTimeout time.Duration
	// Retries is how many times a failed try is retried (default 3, so
	// up to 4 tries; 0 keeps the default — use NoRetries to disable).
	Retries   int
	NoRetries bool
	// BackoffBase/BackoffCap shape the jittered exponential backoff
	// between retries (defaults 10ms / 500ms, full jitter).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeQuantile is the quantile of the target backend's
	// ss_route_backend_seconds histogram after which a second try is
	// hedged to another backend (default 0.9); HedgeMin floors the wait.
	// DisableHedging turns the mechanism off.
	HedgeQuantile  float64
	HedgeMin       time.Duration
	DisableHedging bool
	// BreakerFails consecutive failures open a backend's circuit for
	// BreakerCooldown (defaults 3 / 500ms).
	BreakerFails    int
	BreakerCooldown time.Duration
	// HealthEvery is the membership poll interval (default 250ms); each
	// probe is bounded by TryTimeout.
	HealthEvery time.Duration
	// StalenessWait is the budget for satisfying the monotonic-read
	// token before degrading to an explicitly stale answer (default
	// 250ms).
	StalenessWait time.Duration
	// FailoverAfter consecutive failed leader health checks trigger
	// automatic failover (default 2); DisableFailover leaves promotion
	// to the operator.
	FailoverAfter   int
	DisableFailover bool
	// Seed makes retry jitter deterministic for tests (0 = seeded from
	// the default source, fine in production).
	Seed int64
	// Logf receives operational events (failovers, breaker trips). Nil
	// discards.
	Logf func(format string, args ...any)
	// Obs is the metrics registry the router records into and /metrics
	// exposes. Nil means a registry private to this router — not the
	// process-global obs.Default, so routers built side by side (tests
	// run many) never share counters.
	Obs *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default).
	EnablePprof bool
}

func (cfg *Config) fill() {
	if cfg.TryTimeout <= 0 {
		cfg.TryTimeout = DefaultTryTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.NoRetries {
		cfg.Retries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile > 1 {
		cfg.HedgeQuantile = DefaultHedgeQuantile
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = DefaultHedgeMin
	}
	if cfg.BreakerFails <= 0 {
		cfg.BreakerFails = DefaultBreakerFails
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = DefaultHealthEvery
	}
	if cfg.StalenessWait <= 0 {
		cfg.StalenessWait = DefaultStalenessWait
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = DefaultFailoverAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Router is the serving tier's front door. Create with New, expose with
// Handler, release with Close.
type Router struct {
	cfg      Config
	client   *http.Client
	backends []*Backend
	mux      *http.ServeMux

	// token is the monotonic-read token: the highest snapshot version
	// any relayed answer was evaluated at. It only ever goes up.
	token atomic.Uint64
	// rr spreads read selection round-robin.
	rr atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	// failoverMu serializes failover so concurrent triggers promote at
	// most one follower.
	failoverMu sync.Mutex

	reg   *obs.Registry
	stats routerCounters

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a router over the configured backends and starts its
// health-check loop. The first health sweep runs synchronously so a
// freshly constructed router already knows who leads.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: no backends configured")
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Router{
		cfg:    cfg,
		client: cfg.Client,
		mux:    http.NewServeMux(),
		reg:    reg,
		stats:  newRouterCounters(reg),
		stop:   make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r.rng = rand.New(rand.NewSource(seed))
	for _, addr := range cfg.Backends {
		b, err := newBackend(addr, cfg.BreakerFails, cfg.BreakerCooldown)
		if err != nil {
			return nil, err
		}
		b.met = newBackendMetrics(reg, b.Host)
		r.backends = append(r.backends, b)
	}
	reg.GaugeFunc("ss_route_token",
		"the router's monotonic-read token: the highest snapshot version any relayed answer was evaluated at",
		func() float64 { return float64(r.token.Load()) })

	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /routerz", r.handleRouterz)
	r.mux.Handle("GET /metrics", reg.Handler())
	r.mux.HandleFunc("GET /search", r.serveRead)
	r.mux.HandleFunc("POST /query", r.serveRead)
	r.mux.HandleFunc("GET /recommend", r.serveRead)
	r.mux.HandleFunc("GET /stats", r.serveRead)
	r.mux.HandleFunc("POST /apply", r.serveWrite)
	if cfg.EnablePprof {
		r.mux.HandleFunc("/debug/pprof/", pprof.Index)
		r.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		r.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		r.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		r.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	r.CheckNow()
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Handler returns the routed handler.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the health loop. In-flight requests finish on their own
// deadlines.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Token returns the current monotonic-read token.
func (r *Router) Token() uint64 { return r.token.Load() }

// advanceToken lifts the token to v if higher (CAS loop: tokens only
// ever go up).
func (r *Router) advanceToken(v uint64) {
	for {
		cur := r.token.Load()
		if v <= cur || r.token.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Leader returns the current leader backend, or nil.
func (r *Router) Leader() *Backend {
	for _, b := range r.backends {
		if role, _ := b.roleVersion(); role == RoleLeader {
			return b
		}
	}
	return nil
}

// Backends returns a snapshot of every backend's routing view.
func (r *Router) Backends() []BackendStatus {
	out := make([]BackendStatus, len(r.backends))
	for i, b := range r.backends {
		out[i] = b.snapshot()
	}
	return out
}

// jitter returns a full-jitter backoff: uniform in (0, d].
func (r *Router) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return time.Duration(1 + r.rng.Int63n(int64(d)))
}

// backoff computes the jittered exponential backoff before retry try
// (0-based), floored by any Retry-After hint the last answer carried.
func (r *Router) backoff(try int, hint time.Duration) time.Duration {
	d := r.cfg.BackoffBase << uint(try)
	if d > r.cfg.BackoffCap || d <= 0 {
		d = r.cfg.BackoffCap
	}
	d = r.jitter(d)
	if hint > d {
		d = hint
	}
	return d
}

// handleHealthz reports the router's own health: ok when at least one
// backend is serving reads; degraded (still 200 — the router IS up)
// when writes have nowhere to go.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	for _, b := range r.backends {
		if b.snapshot().Healthy {
			healthy++
		}
	}
	status := "ok"
	if healthy == 0 {
		status = "no-backends"
	} else if r.Leader() == nil {
		status = "no-leader"
	}
	writeJSON(w, http.StatusOK, RouterHealth{
		Status:   status,
		Healthy:  healthy,
		Backends: len(r.backends),
		Token:    r.token.Load(),
	})
}

// handleRouterz reports the routing view; counters are on /metrics.
func (r *Router) handleRouterz(w http.ResponseWriter, req *http.Request) {
	leader := ""
	if l := r.Leader(); l != nil {
		leader = l.Host
	}
	writeJSON(w, http.StatusOK, RouterStats{
		Token:    r.token.Load(),
		Leader:   leader,
		Backends: r.Backends(),
	})
}

// errNoBackend reports that no backend was eligible for a try.
var errNoBackend = errors.New("route: no eligible backend")

// errLeaderGone reports that writes have no target.
var errLeaderGone = errors.New("route: no leader available")

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serve.ErrorResponse{Error: err.Error()})
}
