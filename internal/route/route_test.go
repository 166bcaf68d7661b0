package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"socialscope/internal/netfault"
	"socialscope/internal/serve"
)

// fake is a scriptable stand-in for one ssserve backend: role, version
// and lag for /healthz, a countdown of injected /search failures, and a
// settable per-request delay.
type fake struct {
	mu      sync.Mutex
	role    string
	version uint64
	lag     uint64
	fails   int           // next N reads answer 500
	delay   time.Duration // read latency
	applies int
	srv     *httptest.Server
}

func newFake(role string, version uint64) *fake {
	f := &fake{role: role, version: version}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", f.healthz)
	mux.HandleFunc("GET /search", f.search)
	mux.HandleFunc("POST /apply", f.apply)
	mux.HandleFunc("POST /promote", f.promote)
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fake) addr() string { return f.srv.Listener.Addr().String() }

func (f *fake) set(mutate func(*fake)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mutate(f)
}

func (f *fake) healthz(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	h := serve.HealthResponse{Status: "ok", Version: f.version, Role: f.role}
	if f.role == "follower" {
		lag := f.lag
		h.Lag = &lag
	}
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

func (f *fake) search(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	version := f.version
	delay := f.delay
	failing := f.fails > 0
	if failing {
		f.fails--
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if failing {
		http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(serve.HeaderVersion, strconv.FormatUint(version, 10))
	fmt.Fprintf(w, `{"version":%d,"results":[]}`, version)
}

func (f *fake) apply(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	if f.role != "leader" {
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"error":"engine is a follower"}`)
		return
	}
	f.version++
	f.applies++
	version := f.version
	f.mu.Unlock()
	w.Header().Set(serve.HeaderVersion, strconv.FormatUint(version, 10))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"version":%d,"applied":1,"coalesced":1,"batched":1}`, version)
}

func (f *fake) promote(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.role = "leader"
	f.lag = 0
	version := f.version
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"role":"leader","version":%d}`, version)
}

// testConfig returns a Config tuned for determinism: the health loop is
// effectively off (tests drive CheckNow), backoffs are tiny, jitter is
// seeded.
func testConfig(backends ...string) Config {
	return Config{
		Backends:        backends,
		TryTimeout:      2 * time.Second,
		BackoffBase:     time.Millisecond,
		BackoffCap:      5 * time.Millisecond,
		HealthEvery:     time.Hour,
		StalenessWait:   30 * time.Millisecond,
		BreakerCooldown: time.Hour,
		Seed:            1,
	}
}

func get(t *testing.T, h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestReadRoutesAndAdvancesToken(t *testing.T) {
	leader := newFake("leader", 7)
	defer leader.srv.Close()
	fol := newFake("follower", 7)
	defer fol.srv.Close()

	r, err := New(testConfig(leader.addr(), fol.addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rec := get(t, r.Handler(), "/search?user=1&q=x", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read status %d: %s", rec.Code, rec.Body.String())
	}
	if v := rec.Header().Get(serve.HeaderVersion); v != "7" {
		t.Fatalf("version header %q, want 7", v)
	}
	if rec.Header().Get(serve.HeaderStale) != "" {
		t.Fatal("fresh answer marked stale")
	}
	if r.Token() != 7 {
		t.Fatalf("token %d, want 7", r.Token())
	}
}

func TestReadRetriesThroughTransientFailures(t *testing.T) {
	b := newFake("leader", 3)
	defer b.srv.Close()
	b.set(func(f *fake) { f.fails = 2 })

	r, err := New(testConfig(b.addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rec := get(t, r.Handler(), "/search?user=1&q=x", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("read status %d after retries: %s", rec.Code, rec.Body.String())
	}
	if got := r.stats.retries.Value(); got < 2 {
		t.Fatalf("retries counter %d, want >= 2", got)
	}
}

// TestUnsentClassifiesDialFailures pins the write-retry classifier: only
// a dial failure — injected or real — proves a request never went out.
func TestUnsentClassifiesDialFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	ft := netfault.New(nil)
	ft.FailAt(srv.Listener.Addr().String(), 0)
	ft.ResetAt(srv.Listener.Addr().String(), 1)
	client := &http.Client{Transport: ft}
	_, refused := client.Get(srv.URL)
	_, reset := client.Get(srv.URL)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	_, dial := client.Get("http://" + ln.Addr().String())

	for _, c := range []struct {
		name string
		err  error
		want bool
	}{
		{"injected refused", refused, true},
		{"injected reset", reset, false},
		{"real dial to a closed listener", dial, true},
		{"deadline exceeded", context.DeadlineExceeded, false},
	} {
		if c.err == nil {
			t.Fatalf("%s: request did not fail", c.name)
		}
		if got := unsent(c.err); got != c.want {
			t.Errorf("%s: unsent(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}

func TestBreakerSkipsDeadBackend(t *testing.T) {
	dead := newFake("follower", 5)
	alive := newFake("leader", 5)
	defer alive.srv.Close()

	cfg := testConfig(dead.addr(), alive.addr())
	cfg.BreakerFails = 2
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Kill one backend after membership formed; its breaker must open
	// within a few reads and stop costing tries.
	dead.srv.Close()
	for i := 0; i < 6; i++ {
		rec := get(t, r.Handler(), "/search?user=1&q=x", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d status %d with one backend down", i, rec.Code)
		}
	}
	var opened bool
	for _, s := range r.Backends() {
		if s.Breaker == "open" {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("no breaker opened across %+v", r.Backends())
	}
	// With the breaker open, reads no longer pay the dead backend's
	// connection failures: no retries on this request.
	before := r.stats.retries.Value()
	if rec := get(t, r.Handler(), "/search?user=1&q=x", nil); rec.Code != http.StatusOK {
		t.Fatalf("read with open breaker: %d", rec.Code)
	}
	if after := r.stats.retries.Value(); after != before {
		t.Fatalf("open breaker still cost %d retries", after-before)
	}
}

func TestHedgedReadWinsOnSlowPrimary(t *testing.T) {
	a := newFake("leader", 4)
	defer a.srv.Close()
	b := newFake("follower", 4)
	defer b.srv.Close()

	cfg := testConfig(a.addr(), b.addr())
	cfg.HedgeMin = time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Prime both latency histograms so the hedge trigger has signal.
	for i := 0; i < 20; i++ {
		if rec := get(t, r.Handler(), "/search?user=1&q=x", nil); rec.Code != http.StatusOK {
			t.Fatalf("prime read %d: %d", i, rec.Code)
		}
	}
	// Now make a slow: any read whose primary lands on a should hedge to
	// b and be answered fast.
	a.set(func(f *fake) { f.delay = 300 * time.Millisecond })
	deadline := time.Now().Add(5 * time.Second)
	for r.stats.hedgeWins.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no hedge win (hedges %d)", r.stats.hedges.Value())
		}
		start := time.Now()
		rec := get(t, r.Handler(), "/search?user=1&q=x", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("read: %d", rec.Code)
		}
		_ = start
	}
}

func TestWriteFailoverPromotesFollower(t *testing.T) {
	leader := newFake("leader", 10)
	behind := newFake("follower", 8)
	defer behind.srv.Close()
	ahead := newFake("follower", 10)
	defer ahead.srv.Close()

	cfg := testConfig(leader.addr(), behind.addr(), ahead.addr())
	cfg.FailoverAfter = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A write lands on the live leader.
	rec := post(t, r.Handler(), "/apply", `{"mutations":[]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("write status %d: %s", rec.Code, rec.Body.String())
	}
	if r.Token() != 11 {
		t.Fatalf("token %d after write, want 11", r.Token())
	}

	// Kill the leader. The next write must fail over to the
	// most-caught-up follower and succeed there.
	leader.srv.Close()
	rec = post(t, r.Handler(), "/apply", `{"mutations":[]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("write after leader death: %d %s", rec.Code, rec.Body.String())
	}
	if got := r.stats.failovers.Value(); got != 1 {
		t.Fatalf("failovers %d, want 1", got)
	}
	ahead.mu.Lock()
	role, applies := ahead.role, ahead.applies
	ahead.mu.Unlock()
	if role != "leader" || applies != 1 {
		t.Fatalf("most-caught-up follower: role=%s applies=%d, want promoted with the write", role, applies)
	}
	behind.mu.Lock()
	brole := behind.role
	behind.mu.Unlock()
	if brole != "follower" {
		t.Fatal("failover picked the lagging follower over the caught-up one")
	}
	if l := r.Leader(); l == nil || l.Host != ahead.addr() {
		t.Fatalf("router leader view %v, want %s", l, ahead.addr())
	}
}

func TestStaleReadDegradesExplicitly(t *testing.T) {
	leader := newFake("leader", 5)
	stale := newFake("follower", 3)
	defer stale.srv.Close()

	cfg := testConfig(leader.addr(), stale.addr())
	cfg.DisableFailover = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Lift the token to 6 via a write, then kill the leader: only the
	// version-3 follower remains.
	if rec := post(t, r.Handler(), "/apply", `{"mutations":[]}`); rec.Code != http.StatusOK {
		t.Fatalf("write: %d", rec.Code)
	}
	leader.srv.Close()
	r.CheckNow()

	rec := get(t, r.Handler(), "/search?user=1&q=x", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded read status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get(serve.HeaderStale) != "true" {
		t.Fatalf("stale answer not marked: headers %v", rec.Header())
	}
	if v := rec.Header().Get(serve.HeaderVersion); v != "3" {
		t.Fatalf("stale version header %q, want 3", v)
	}
	if got := r.stats.staleServed.Value(); got != 1 {
		t.Fatalf("staleServed %d, want 1", got)
	}
	// The token never regresses to the stale answer's version.
	if r.Token() != 6 {
		t.Fatalf("token %d after stale serve, want 6", r.Token())
	}
}

func TestClientMinVersionHeaderRaisesFloor(t *testing.T) {
	b := newFake("leader", 4)
	defer b.srv.Close()

	cfg := testConfig(b.addr())
	cfg.StalenessWait = 10 * time.Millisecond
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The client demands a newer snapshot than any backend has: the
	// answer must come back explicitly stale, not silently fresh.
	rec := get(t, r.Handler(), "/search?user=1&q=x",
		map[string]string{serve.HeaderMinVersion: "9"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if rec.Header().Get(serve.HeaderStale) != "true" {
		t.Fatal("min-version miss not marked stale")
	}
}

func TestRouterzReportsView(t *testing.T) {
	leader := newFake("leader", 2)
	defer leader.srv.Close()
	fol := newFake("follower", 2)
	defer fol.srv.Close()

	r, err := New(testConfig(leader.addr(), fol.addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rec := get(t, r.Handler(), "/routerz", nil)
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
		t.Fatalf("routerz decode: %v", err)
	}
	if got, want := slices.Sorted(maps.Keys(keys)), []string{"backends", "leader", "token"}; !slices.Equal(got, want) {
		t.Fatalf("routerz keys %v, want exactly %v", got, want)
	}
	var rs RouterStats
	if err := json.Unmarshal(rec.Body.Bytes(), &rs); err != nil {
		t.Fatalf("routerz decode: %v", err)
	}
	if rs.Leader != leader.addr() {
		t.Fatalf("routerz leader %q, want %q", rs.Leader, leader.addr())
	}
	if len(rs.Backends) != 2 {
		t.Fatalf("routerz backends %d, want 2", len(rs.Backends))
	}
	rec = get(t, r.Handler(), "/healthz", nil)
	var rh RouterHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &rh); err != nil {
		t.Fatal(err)
	}
	if rh.Status != "ok" || rh.Healthy != 2 {
		t.Fatalf("router health %+v", rh)
	}
}

func TestZombieLeaderStaysDeposed(t *testing.T) {
	leader := newFake("leader", 5)
	defer leader.srv.Close()
	fol := newFake("follower", 5)
	defer fol.srv.Close()

	cfg := testConfig(leader.addr(), fol.addr())
	cfg.FailoverAfter = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Partition the leader by swapping its handler for a hang... simplest
	// deterministic stand-in: close, fail over, then "revive" it by
	// noting health directly (the zombie still claims leadership).
	old := r.backends[0]
	leader.srv.CloseClientConnections()
	leader.srv.Close()
	if rec := post(t, r.Handler(), "/apply", `{"mutations":[]}`); rec.Code != http.StatusOK {
		t.Fatalf("failover write: %d", rec.Code)
	}
	if !old.snapshot().Deposed {
		t.Fatal("dead leader not deposed after failover")
	}
	// The zombie comes back up still claiming leadership: the deposed
	// flag must keep it out of the write path.
	old.noteHealth(RoleLeader, 5, 0, time.Now())
	if got := old.snapshot().Role; got == RoleLeader.String() {
		t.Fatalf("deposed backend re-admitted as leader: %s", got)
	}
	if l := r.Leader(); l == nil || l.Host != fol.addr() {
		t.Fatalf("leader view %v, want promoted follower %s", l, fol.addr())
	}
}
