package route

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"socialscope/internal/serve"
)

// healthLoop polls every backend's /healthz on the configured cadence
// until Close. Request paths never block on it: they read the view the
// last sweep left behind.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.CheckNow()
		}
	}
}

// CheckNow runs one synchronous health sweep (all backends probed in
// parallel) and then evaluates the failover condition. Exported so
// deterministic tests drive membership without waiting out the ticker.
func (r *Router) CheckNow() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			r.probe(b)
		}(b)
	}
	wg.Wait()
	r.maybeFailover()
}

// probe performs one health check against b and folds the outcome into
// the routing view.
func (r *Router) probe(b *Backend) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.TryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/healthz", nil)
	if err != nil {
		b.noteHealthFail(time.Now())
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		b.noteHealthFail(time.Now())
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		b.noteHealthFail(time.Now())
		return
	}
	var h serve.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		b.noteHealthFail(time.Now())
		return
	}
	role := RoleUnknown
	switch h.Role {
	case "leader":
		role = RoleLeader
	case "follower":
		role = RoleFollower
	}
	var lag uint64
	if h.Lag != nil {
		lag = *h.Lag
	}
	b.noteHealth(role, h.Version, lag, time.Now())
}

// maybeFailover triggers automatic failover when the backend we believe
// leads has missed FailoverAfter consecutive health checks.
func (r *Router) maybeFailover() {
	if r.cfg.DisableFailover {
		return
	}
	for _, b := range r.backends {
		s := b.snapshot()
		if s.Role == RoleLeader.String() && !s.Healthy && b.failCount() >= r.cfg.FailoverAfter {
			r.failover(context.Background(), b)
			return
		}
	}
}

// failover promotes the healthiest, most-caught-up follower to leader.
// dead is the leader being replaced (nil when there is no leader at
// all). Serialized so concurrent triggers — the health loop and a
// write that found no leader — promote at most one follower. Returns
// the new leader, or nil when no candidate could be promoted.
//
// Safe to automate because Promote is equivalent to crash recovery of
// the dead leader's directory (the replication layer's differential
// guarantee): the promoted follower serves exactly the state the dead
// leader's own reboot would have.
func (r *Router) failover(ctx context.Context, dead *Backend) *Backend {
	r.failoverMu.Lock()
	defer r.failoverMu.Unlock()

	// Another trigger may have won the race while we waited on the lock:
	// if a healthy leader exists now, the failover already happened.
	if l := r.Leader(); l != nil && l != dead && l.snapshot().Healthy {
		return l
	}

	// Candidates: healthy followers, most-caught-up first — highest
	// snapshot version, ties broken by lowest replication lag. Promote
	// drains the candidate's confirmed tail itself, so "most caught up"
	// is an optimization (least to drain, most acked data survives), not
	// a correctness requirement.
	type cand struct {
		b       *Backend
		version uint64
		lag     uint64
	}
	var cands []cand
	for _, b := range r.backends {
		if b == dead {
			continue
		}
		s := b.snapshot()
		if !s.Healthy || s.Role != RoleFollower.String() {
			continue
		}
		cands = append(cands, cand{b, s.Version, s.Lag})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.version > a.version || (b.version == a.version && b.lag < a.lag) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	if len(cands) == 0 {
		r.cfg.Logf("route: failover wanted, no promotable follower")
		return nil
	}

	for _, c := range cands {
		v, err := r.promote(ctx, c.b)
		if err != nil {
			r.cfg.Logf("route: promote %s failed: %v", c.b.Host, err)
			continue
		}
		// Depose first so a zombie ex-leader answering later health checks
		// can never reclaim the write path.
		if dead != nil {
			dead.depose()
		}
		c.b.promoted(v)
		r.stats.failovers.Add(1)
		r.cfg.Logf("route: failed over to %s (version %d)", c.b.Host, v)
		return c.b
	}
	return nil
}

// promote POSTs /promote to b and returns the promoted engine's
// version.
func (r *Router) promote(ctx context.Context, b *Backend) (uint64, error) {
	pctx, cancel := context.WithTimeout(ctx, r.cfg.TryTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodPost, b.URL+"/promote", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	var pr serve.PromoteResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return 0, err
	}
	// 409 with role=leader means a retried promotion already landed —
	// that is success, not conflict.
	if pr.Role != "leader" {
		return 0, errNotPromoted{b.Host, resp.StatusCode, pr.Role}
	}
	return pr.Version, nil
}

type errNotPromoted struct {
	host   string
	status int
	role   string
}

func (e errNotPromoted) Error() string {
	return "route: " + e.host + " did not promote (status " +
		http.StatusText(e.status) + ", role " + e.role + ")"
}
