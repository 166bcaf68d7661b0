package route

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Role is a backend's replication role as reported by its /healthz.
type Role int

const (
	RoleUnknown Role = iota
	RoleLeader
	RoleFollower
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	}
	return "unknown"
}

// Backend is one ssserve instance behind the router: its address plus
// the router's view of its health, role, snapshot version, replication
// lag, circuit breaker and latency profile. All mutable state is
// guarded by mu; the health checker writes it, request paths read it.
type Backend struct {
	// URL is the normalized base URL ("http://host:port").
	URL string
	// Host is the URL's host part — the key netfault.Transport counts
	// ops under, and the stable name in stats and logs.
	Host string

	// met holds this backend's per-host registry gauges; nil on
	// backends built outside a Router (see syncLocked).
	met *backendMetrics

	mu          sync.Mutex
	role        Role
	version     uint64
	lag         uint64
	healthy     bool
	consecFails int
	deposed     bool // was the leader, got failed over; never a leader again
	brk         breaker
}

// newBackend normalizes addr ("host:port" or a full URL) into a Backend.
func newBackend(addr string, brkThreshold int, brkCooldown time.Duration) (*Backend, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("route: bad backend %q: %w", addr, err)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("route: backend %q has no host", addr)
	}
	return &Backend{
		URL:  u.Scheme + "://" + u.Host,
		Host: u.Host,
		brk:  breaker{threshold: brkThreshold, cooldown: brkCooldown},
	}, nil
}

// noteHealth folds one successful health check into the view.
func (b *Backend) noteHealth(role Role, version, lag uint64, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy = true
	b.consecFails = 0
	if !(b.deposed && role == RoleLeader) {
		// A deposed leader still claiming leadership is a zombie: keep it
		// demoted in our view so writes never reach it.
		b.role = role
	}
	b.version = version
	b.lag = lag
	b.brk.success()
	b.syncLocked()
}

// noteHealthFail folds one failed health check and returns the
// consecutive-failure count.
func (b *Backend) noteHealthFail(now time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy = false
	b.consecFails++
	b.brk.failure(now)
	b.syncLocked()
	return b.consecFails
}

// failCount returns the consecutive failed-health-check count.
func (b *Backend) failCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecFails
}

// allow consults health and the circuit breaker; a true return may be a
// half-open probe, so the caller must report the outcome via noteResult.
func (b *Backend) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy && b.brk.allow(now)
}

// noteResult records a request outcome for the breaker, and latency for
// the hedging profile. lat <= 0 skips the latency sample (503 sheds are
// "ok" for the breaker — the backend is alive — but their fast turnaround
// would poison the hedging profile).
func (b *Backend) noteResult(ok bool, lat time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.brk.success()
		if lat > 0 && b.met != nil {
			b.met.lat.Observe(lat.Seconds())
		}
	} else {
		b.brk.failure(now)
	}
	b.syncLocked()
}

// snapshot returns a consistent view for selection and stats.
func (b *Backend) snapshot() BackendStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{
		URL:     b.URL,
		Host:    b.Host,
		Role:    b.role.String(),
		Healthy: b.healthy,
		Deposed: b.deposed,
		Version: b.version,
		Lag:     b.lag,
		Breaker: b.brk.state.String(),
	}
}

// observeVersion folds a snapshot version seen on a served answer into
// the view: between health sweeps, answers are fresher than the last
// probe, and selection by min-version works off the best known value.
func (b *Backend) observeVersion(v uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v > b.version {
		b.version = v
		b.syncLocked()
	}
}

func (b *Backend) roleVersion() (Role, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.role, b.version
}

// hedgeDelay returns how long to let a try run before hedging: the
// q-quantile of this backend's ss_route_backend_seconds histogram,
// clamped to [min, max]. ok is false when the backend has no metrics or
// fewer than 8 observations — too little signal to hedge on.
func (b *Backend) hedgeDelay(q float64, min, max time.Duration) (time.Duration, bool) {
	if b.met == nil || b.met.lat.Count() < 8 {
		return 0, false
	}
	d := time.Duration(b.met.lat.Quantile(q) * float64(time.Second))
	if d < min {
		d = min
	}
	if max > 0 && d > max {
		d = max
	}
	return d, true
}

// depose marks a former leader as permanently non-leader in the
// router's view (reads may still hit it; writes never will).
func (b *Backend) depose() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deposed = true
	if b.role == RoleLeader {
		b.role = RoleUnknown
	}
	b.syncLocked()
}

// promote records a successful /promote: this backend is the leader now.
func (b *Backend) promoted(version uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.role = RoleLeader
	b.version = version
	b.lag = 0
	b.healthy = true
	b.deposed = false
	b.brk.success()
	b.syncLocked()
}

// BackendStatus is one backend's state as reported by /routerz.
type BackendStatus struct {
	URL     string `json:"url"`
	Host    string `json:"host"`
	Role    string `json:"role"`
	Healthy bool   `json:"healthy"`
	Deposed bool   `json:"deposed,omitempty"`
	Version uint64 `json:"version"`
	Lag     uint64 `json:"lag"`
	Breaker string `json:"breaker"`
}
