package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/topk"
	"socialscope/internal/vfs"
	"socialscope/internal/workload"
)

// TestStatusForMapping pins the error→HTTP contract the router's retry
// classifier depends on: a drifting mapping silently turns retryable
// conditions into terminal ones (or worse, the reverse).
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"canceled", context.Canceled, http.StatusGatewayTimeout},
		{"wrapped deadline", fmt.Errorf("evaluating: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"overloaded", ErrOverloaded, http.StatusServiceUnavailable},
		{"wrapped overloaded", fmt.Errorf("admission: %w", ErrOverloaded), http.StatusServiceUnavailable},
		{"unknown user (discovery)", discovery.ErrUnknownUser, http.StatusNotFound},
		{"unknown user (topk)", topk.ErrUnknownUser, http.StatusNotFound},
		{"follower write", socialscope.ErrFollower, http.StatusConflict},
		{"wrapped follower write", fmt.Errorf("apply: %w", socialscope.ErrFollower), http.StatusConflict},
		{"engine rejection", errors.New("bad mutation"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := statusFor(tc.err); got != tc.want {
				t.Fatalf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestShedCarriesRetryAfter asserts the 503 shed path emits both the
// standard Retry-After and the millisecond-precision hint the router's
// backoff consumes.
func TestShedCarriesRetryAfter(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 20, Destinations: 10, Seed: 3, VisitsPerUser: 4, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	// One slot, no queue, and a handler that blocks: the second request
	// must shed.
	srv := New(eng, Config{MaxConcurrent: 1, MaxQueue: 0, FlushInterval: 40 * time.Millisecond})
	defer srv.Close()
	block, held := make(chan struct{}), make(chan struct{})
	srv.mux.HandleFunc("GET /block", srv.limited(func(w http.ResponseWriter, r *http.Request) {
		close(held)
		<-block
	}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(block)

	go http.Get(ts.URL + "/block")
	// Wait for the blocker to hold the slot before competing for it: a
	// probe that arrives first would shed the blocker instead.
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("blocker never took the slot")
	}
	resp, err := http.Get(ts.URL + "/search?user=1&q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("never shed: last status %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (sub-second hints round up)", ra)
	}
	if ms := resp.Header.Get(HeaderRetryAfterMs); ms != "40" {
		t.Fatalf("%s = %q, want \"40\"", HeaderRetryAfterMs, ms)
	}
}

// TestHealthzReportsFollowerLag asserts the enriched /healthz: version
// always, lag only on followers, and lag reflecting unapplied records.
func TestHealthzReportsFollowerLag(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 30, Destinations: 15, Seed: 5, VisitsPerUser: 4, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := socialscope.Config{ItemType: "destination"}
	fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
	leader, err := socialscope.OpenDurable("lagdir", corpus.Graph, cfg, socialscope.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := socialscope.OpenFollower("lagdir", cfg, socialscope.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}

	leaderSrv := New(leader, Config{})
	defer leaderSrv.Close()
	rec := httptest.NewRecorder()
	leaderSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var lh HealthResponse
	decodeBody(t, rec, &lh)
	if lh.Role != "leader" || lh.Lag != nil {
		t.Fatalf("leader healthz = %+v, want role=leader lag=nil", lh)
	}
	if lh.Version != leader.Version() {
		t.Fatalf("leader healthz version = %d, want %d", lh.Version, leader.Version())
	}

	// Write through the leader and checkpoint (confirming the records)
	// WITHOUT letting the follower catch up: lag must surface.
	stream, err := workload.NewTaggingStream(corpus.Graph, corpus.Users, corpus.Destinations,
		workload.Categories, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := leader.Apply(stream.Batch(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	folSrv := New(fol, Config{})
	defer folSrv.Close()
	health := func() HealthResponse {
		rec := httptest.NewRecorder()
		folSrv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h HealthResponse
		decodeBody(t, rec, &h)
		return h
	}
	// The follower hasn't polled: it reports zero lag only until its next
	// CatchUp observes the manifest. Poll the manifest by catching up
	// with a budget of 0 records? CatchUp(max) with max<0 is not a mode;
	// instead catch up fully and assert lag returns to zero, then verify
	// the intermediate observation with a 1-record budget.
	if _, err := fol.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	h := health()
	if h.Role != "follower" || h.Lag == nil {
		t.Fatalf("follower healthz = %+v, want role=follower with lag", h)
	}
	if *h.Lag == 0 {
		t.Fatalf("follower applied 1 of several confirmed records, lag = 0 (version %d)", h.Version)
	}
	if _, err := fol.CatchUp(0); err != nil {
		t.Fatal(err)
	}
	h = health()
	if h.Lag == nil || *h.Lag != 0 {
		t.Fatalf("caught-up follower lag = %v, want 0", h.Lag)
	}
	if h.Version != leader.Version() {
		t.Fatalf("caught-up follower version = %d, leader %d", h.Version, leader.Version())
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
}

func decodeBody(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decode: %v (body %q)", err, rec.Body.String())
	}
}

// TestQueryLimitsAre400 pins the request caps of /search and /query: a k
// or a query text past its limit, or an alpha outside [0, 1], is refused
// with 400 before evaluation, and a request exactly at the limits is
// served.
func TestQueryLimitsAre400(t *testing.T) {
	site := newTestSite(t, Config{})
	user := site.corpus.Users[0]
	atQ, overQ := strings.Repeat("x", maxQueryBytes), strings.Repeat("x", maxQueryBytes+1)
	search := func(q string, k int) string {
		return site.searchPath(user, q, true) + "&k=" + strconv.Itoa(k)
	}
	searchAlpha := func(alpha string) string {
		return site.searchPath(user, "museum", true) + "&alpha=" + alpha
	}
	query := func(q string, k int) string {
		body, err := json.Marshal(QueryRequest{User: user, Query: q, K: k})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	queryAlpha := func(alpha float64) string {
		body, err := json.Marshal(QueryRequest{User: user, Query: "museum", Alpha: &alpha})
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	cases := []struct {
		name, path, body string // a body means POST /query
		want             int
	}{
		{"search at limits", search(atQ, maxResultK), "", http.StatusOK},
		{"search k over limit", search("museum", maxResultK+1), "", http.StatusBadRequest},
		{"search q over limit", search(overQ, 10), "", http.StatusBadRequest},
		{"query at limits", "/query", query(atQ, maxResultK), http.StatusOK},
		{"query k over limit", "/query", query("museum", maxResultK+1), http.StatusBadRequest},
		{"query q over limit", "/query", query(overQ, 10), http.StatusBadRequest},
		{"search alpha 0", searchAlpha("0"), "", http.StatusOK},
		{"search alpha 1", searchAlpha("1"), "", http.StatusOK},
		{"search alpha over 1", searchAlpha("1.5"), "", http.StatusBadRequest},
		{"search alpha under 0", searchAlpha("-0.1"), "", http.StatusBadRequest},
		{"search alpha NaN", searchAlpha("NaN"), "", http.StatusBadRequest},
		{"search alpha Inf", searchAlpha("Inf"), "", http.StatusBadRequest},
		{"search alpha -Inf", searchAlpha("-Inf"), "", http.StatusBadRequest},
		{"query alpha 0", "/query", queryAlpha(0), http.StatusOK},
		{"query alpha 1", "/query", queryAlpha(1), http.StatusOK},
		{"query alpha over 1", "/query", queryAlpha(1.5), http.StatusBadRequest},
		{"query alpha under 0", "/query", queryAlpha(-0.1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			if tc.body != "" {
				req = httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			}
			site.srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body, tc.want)
			}
		})
	}

	// Refused before the cache key is formed: a cacheable NaN read stores
	// nothing.
	entries := cacheEntries(site.srv.cache)
	rec := httptest.NewRecorder()
	site.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		site.searchPath(user, "museum", false)+"&alpha=NaN", nil))
	if rec.Code != http.StatusBadRequest || cacheEntries(site.srv.cache) != entries {
		t.Fatalf("cacheable NaN alpha: status %d, cache entries %d -> %d", rec.Code, entries, cacheEntries(site.srv.cache))
	}
}

// TestApplyOverMutationCapIs413: an /apply carrying more than
// maxApplyMutations mutations is refused with 413 before any is decoded
// or applied; one at the cap passes the check (and here fails decoding,
// so it applies nothing either).
func TestApplyOverMutationCapIs413(t *testing.T) {
	site := newTestSite(t, Config{})
	v0 := site.eng.Version()
	batch := func(n int) string {
		return `{"mutations":[` + strings.Repeat(`{"op":"bogus"},`, n-1) + `{"op":"bogus"}]}`
	}
	for _, c := range []struct {
		n    int
		want int
	}{
		{maxApplyMutations + 1, http.StatusRequestEntityTooLarge},
		{maxApplyMutations, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		site.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/apply", strings.NewReader(batch(c.n))))
		if rec.Code != c.want {
			t.Fatalf("%d mutations: status %d (%.200s), want %d", c.n, rec.Code, rec.Body, c.want)
		}
	}
	if got := site.eng.Version(); got != v0 {
		t.Fatalf("refused applies bumped version %d -> %d", v0, got)
	}
	if status, out, body := site.apply(t, site.stream.Batch(2)); status != http.StatusOK || out.Version != v0+1 {
		t.Fatalf("normal apply after 413: status %d version %d (%s)", status, out.Version, body)
	}
}
