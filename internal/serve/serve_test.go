package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// testSite builds a small live site: corpus, engine (TA over peruser, so
// index-backed queries and exact per-user caching), HTTP server.
type testSite struct {
	corpus *workload.TravelCorpus
	eng    *socialscope.Engine
	srv    *Server
	ts     *httptest.Server
	stream *workload.TaggingStream
}

func newTestSite(t *testing.T, cfg Config) *testSite {
	t.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 60, Destinations: 25, Seed: 7, VisitsPerUser: 6, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	stream, err := workload.NewTaggingStream(corpus.Graph, corpus.Users, corpus.Destinations,
		workload.Categories, 11)
	if err != nil {
		t.Fatal(err)
	}
	return &testSite{corpus: corpus, eng: eng, srv: srv, ts: ts, stream: stream}
}

func (s *testSite) get(t *testing.T, path string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func (s *testSite) searchPath(user graph.NodeID, q string, nocache bool) string {
	v := url.Values{"user": {strconv.FormatInt(int64(user), 10)}, "q": {q}}
	if nocache {
		v.Set("nocache", "1")
	}
	return "/search?" + v.Encode()
}

func (s *testSite) apply(t *testing.T, muts []graph.Mutation) (int, ApplyResponse, []byte) {
	t.Helper()
	req := ApplyRequest{Mutations: make([]MutationWire, len(muts))}
	for i, m := range muts {
		req.Mutations[i] = MutationToWire(m)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/apply", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out ApplyResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad apply response %s: %v", body, err)
		}
	}
	return resp.StatusCode, out, body
}

// friendOf returns one user connected to u.
func friendOf(t *testing.T, g *graph.Graph, u graph.NodeID) graph.NodeID {
	t.Helper()
	for _, l := range g.Out(u) {
		if l.HasType(graph.TypeConnect) {
			return l.Tgt
		}
	}
	for _, l := range g.In(u) {
		if l.HasType(graph.TypeConnect) {
			return l.Src
		}
	}
	t.Fatalf("user %d has no connections", u)
	return 0
}

// TestVersionBumpsOncePerApplyBatch pins the cache's invalidation
// contract: one Apply batch — whatever its size — bumps Engine.Version()
// exactly once, both through the facade and through coalesced /apply.
func TestVersionBumpsOncePerApplyBatch(t *testing.T) {
	site := newTestSite(t, Config{})
	v0 := site.eng.Version()

	// Facade: a 5-mutation batch is one bump.
	if err := site.eng.Apply(site.stream.Batch(5)); err != nil {
		t.Fatal(err)
	}
	if got := site.eng.Version(); got != v0+1 {
		t.Fatalf("5-mutation Apply bumped version %d -> %d, want exactly +1", v0, got)
	}
	// Sequential /apply requests: one flush each, one bump each.
	for i := 0; i < 3; i++ {
		before := site.eng.Version()
		status, out, body := site.apply(t, site.stream.Batch(2))
		if status != http.StatusOK {
			t.Fatalf("apply %d: %d: %s", i, status, body)
		}
		if out.Version != before+1 {
			t.Fatalf("apply %d: version %d -> %d, want exactly +1", i, before, out.Version)
		}
	}
}

// TestCacheHitByteIdentical pins the cache's correctness contract: a
// hit serves exactly the bytes the miss computed, and an explicit bypass
// recomputes the same bytes.
func TestCacheHitByteIdentical(t *testing.T) {
	site := newTestSite(t, Config{})
	user := site.corpus.Users[3]
	path := site.searchPath(user, "museum hotel", false)

	_, miss, h1 := site.get(t, path)
	_, hit, h2 := site.get(t, path)
	_, bypass, h3 := site.get(t, site.searchPath(user, "museum hotel", true))

	if got := h1.Get("X-SS-Cache"); got != string(OutcomeMiss) {
		t.Fatalf("first request outcome %q, want miss", got)
	}
	if got := h2.Get("X-SS-Cache"); got != string(OutcomeHit) {
		t.Fatalf("second request outcome %q, want hit", got)
	}
	if got := h3.Get("X-SS-Cache"); got != string(OutcomeBypass) {
		t.Fatalf("bypass request outcome %q, want bypass", got)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("hit differs from miss:\n%s\n%s", miss, hit)
	}
	if !bytes.Equal(miss, bypass) {
		t.Fatalf("bypass differs from miss:\n%s\n%s", miss, bypass)
	}
}

// TestCacheNeverSharesAcrossUsers pins the cache's sharing granularity:
// responses are user-specific under every clustering — peruser, a
// network clustering that puts everyone in one cluster, and no index at
// all — so a second user asking the same thing at the same version must
// miss, and what the cache then holds for them is what they would get
// uncached.
func TestCacheNeverSharesAcrossUsers(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 30, Destinations: 12, Seed: 4, VisitsPerUser: 5, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := corpus.Users[0], corpus.Users[1]
	for name, cfg := range map[string]socialscope.Config{
		"peruser": {ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser"},
		"network": {ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "network", ClusterTheta: 0.0},
		"topkoff": {ItemType: "destination"},
	} {
		t.Run(name, func(t *testing.T) {
			eng, err := socialscope.New(corpus.Graph, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := New(eng, Config{})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				srv.Close()
			}()
			site := &testSite{corpus: corpus, eng: eng, srv: srv, ts: ts}
			recommend := func(u graph.NodeID, nocache bool) string {
				p := "/recommend?user=" + strconv.FormatInt(int64(u), 10)
				if nocache {
					p += "&nocache=1"
				}
				return p
			}
			for _, path := range []func(graph.NodeID, bool) string{
				func(u graph.NodeID, nocache bool) string { return site.searchPath(u, "museum hotel", nocache) },
				recommend,
			} {
				if code, body, _ := site.get(t, path(u1, false)); code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", path(u1, false), code, body)
				}
				if _, _, h := site.get(t, path(u1, false)); h.Get("X-SS-Cache") != string(OutcomeHit) {
					t.Fatalf("%s: repeat for the same user: outcome %q, want hit", path(u1, false), h.Get("X-SS-Cache"))
				}
				_, cached, h := site.get(t, path(u2, false))
				if got := h.Get("X-SS-Cache"); got != string(OutcomeMiss) {
					t.Fatalf("%s: another user's identical request: outcome %q, want miss", path(u2, false), got)
				}
				if _, fresh, _ := site.get(t, path(u2, true)); !bytes.Equal(cached, fresh) {
					t.Fatalf("%s: cached body differs from the user's own uncached one:\n%s\n%s", path(u2, false), cached, fresh)
				}
			}
		})
	}
}

// TestPostApplyNeverStale pins freshness: a search after an Apply that
// changes its answer must serve the new answer, not the cached old one —
// the version key makes the old entry unreachable.
func TestPostApplyNeverStale(t *testing.T) {
	site := newTestSite(t, Config{})
	user := site.corpus.Users[5]
	friend := friendOf(t, site.corpus.Graph, user)
	const tag = "zzztesttag" // unseen in the corpus: pre-apply answer is empty
	path := site.searchPath(user, tag, false)

	status, before, _ := site.get(t, path)
	if status != http.StatusOK {
		t.Fatalf("pre-apply search: %d: %s", status, before)
	}
	var pre SearchResponse
	if err := json.Unmarshal(before, &pre); err != nil {
		t.Fatal(err)
	}
	if len(pre.Results) != 0 {
		t.Fatalf("want empty pre-apply answer, got %d results", len(pre.Results))
	}
	// Cache it again so the stale entry definitely exists.
	if _, _, h := site.get(t, path); h.Get("X-SS-Cache") != string(OutcomeHit) {
		t.Fatalf("expected a cached entry before the apply")
	}

	// The user's friend tags a destination with the query tag: the answer
	// must change.
	dest := site.corpus.Destinations[0]
	l := graph.NewLink(site.corpus.Graph.MaxLinkID()+1000, friend, dest, graph.TypeAct, graph.SubtypeTag)
	l.AddAttr("tags", tag)
	status, out, body := site.apply(t, []graph.Mutation{{Kind: graph.MutAddLink, Link: l}})
	if status != http.StatusOK {
		t.Fatalf("apply: %d: %s", status, body)
	}
	if out.Version == pre.Version {
		t.Fatalf("apply did not bump the version")
	}

	status, after, h := site.get(t, path)
	if status != http.StatusOK {
		t.Fatalf("post-apply search: %d: %s", status, after)
	}
	if got := h.Get("X-SS-Cache"); got == string(OutcomeHit) {
		t.Fatalf("post-apply search served a stale hit")
	}
	var post SearchResponse
	if err := json.Unmarshal(after, &post); err != nil {
		t.Fatal(err)
	}
	if len(post.Results) != 1 || post.Results[0].Item != dest {
		t.Fatalf("post-apply answer = %s, want the freshly tagged destination %d", after, dest)
	}
	// And the fresh answer must itself be byte-identical to an uncached
	// evaluation.
	_, bypass, _ := site.get(t, site.searchPath(user, tag, true))
	if !bytes.Equal(after, bypass) {
		t.Fatalf("post-apply cached path differs from bypass:\n%s\n%s", after, bypass)
	}
}

// TestConcurrentSearchApply hammers handler reads against /apply writes;
// run with -race this is the serving layer's snapshot-consistency test.
func TestConcurrentSearchApply(t *testing.T) {
	site := newTestSite(t, Config{FlushInterval: 2 * time.Millisecond})
	const (
		readers      = 6
		readsPer     = 25
		writers      = 2
		writesPer    = 8
		mutsPerWrite = 3
		expectedMuts = writers * writesPer * mutsPerWrite
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers*readsPer+writers*writesPer)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				u := site.corpus.Users[(r*readsPer+i)%len(site.corpus.Users)]
				q := workload.Categories[i%len(workload.Categories)]
				resp, err := http.Get(site.ts.URL + site.searchPath(u, q, false))
				if err != nil {
					errc <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("search %d/%d: %d: %s", r, i, resp.StatusCode, body)
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				muts := site.stream.Batch(mutsPerWrite)
				req := ApplyRequest{Mutations: make([]MutationWire, len(muts))}
				for j, m := range muts {
					req.Mutations[j] = MutationToWire(m)
				}
				buf, _ := json.Marshal(req)
				resp, err := http.Post(site.ts.URL+"/apply", "application/json", bytes.NewReader(buf))
				if err != nil {
					errc <- err
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("apply: %d: %s", resp.StatusCode, body)
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Every accepted mutation landed: the serving graph grew by exactly
	// the stream's output.
	wantLinks := site.corpus.Graph.NumLinks() + expectedMuts
	if got := site.eng.Graph().NumLinks(); got != wantLinks {
		t.Fatalf("serving graph has %d links, want %d", got, wantLinks)
	}
	if v := site.eng.Version(); v == 0 {
		t.Fatalf("no version bumps despite %d writes", writers*writesPer)
	}
}

// TestApplyRejectionIsClean verifies a rejected batch surfaces as an
// error response and changes nothing.
func TestApplyRejectionIsClean(t *testing.T) {
	site := newTestSite(t, Config{})
	v0 := site.eng.Version()
	// Re-adding a node the engine already holds is rejected by Engine.Apply.
	n := site.corpus.Graph.Node(site.corpus.Users[0]).Clone()
	status, _, body := site.apply(t, []graph.Mutation{{Kind: graph.MutAddNode, Node: n}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate add: status %d (%s), want 422", status, body)
	}
	if got := site.eng.Version(); got != v0 {
		t.Fatalf("rejected apply bumped version %d -> %d", v0, got)
	}
}

// TestOversizedApplyIs413 pins the request-body bound: a body past
// maxRequestBody is refused with 413 and changes nothing, while a normal
// batch still lands.
func TestOversizedApplyIs413(t *testing.T) {
	site := newTestSite(t, Config{})
	v0 := site.eng.Version()
	body := `{"mutations":[` + strings.Repeat(" ", maxRequestBody) + `]}`
	rec := httptest.NewRecorder()
	site.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/apply", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized apply: status %d (%s), want 413", rec.Code, rec.Body)
	}
	if got := site.eng.Version(); got != v0 {
		t.Fatalf("oversized apply bumped version %d -> %d", v0, got)
	}
	if status, out, body := site.apply(t, site.stream.Batch(2)); status != http.StatusOK || out.Version != v0+1 {
		t.Fatalf("normal apply after 413: status %d version %d (%s)", status, out.Version, body)
	}
}

// TestUnknownUserIs404 verifies the sentinel-based status mapping.
func TestUnknownUserIs404(t *testing.T) {
	site := newTestSite(t, Config{})
	status, body, _ := site.get(t, site.searchPath(999999, "museum", true))
	if status != http.StatusNotFound {
		t.Fatalf("unknown user: status %d (%s), want 404", status, body)
	}
	status, body, _ = site.get(t, "/recommend?user=999999")
	if status != http.StatusNotFound {
		t.Fatalf("unknown user recommend: status %d (%s), want 404", status, body)
	}
}

// TestRequestDeadline verifies the per-request budget propagates: a
// server whose deadline is already unmeetable answers 504, not never.
func TestRequestDeadline(t *testing.T) {
	site := newTestSite(t, Config{RequestTimeout: time.Nanosecond})
	status, body, _ := site.get(t, site.searchPath(site.corpus.Users[0], "museum", true))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
}

// TestHealthzAndStats smoke-tests the unlimited endpoints and pins
// /stats to the engine facts no metric series carries.
func TestHealthzAndStats(t *testing.T) {
	site := newTestSite(t, Config{})
	status, body, _ := site.get(t, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: %d: %s", status, body)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %s (%v)", body, err)
	}
	status, body, _ = site.get(t, "/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: %d: %s", status, body)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body %s (%v)", body, err)
	}
	keys := slices.Sorted(maps.Keys(st))
	if want := []string{"max_link_id", "max_node_id", "uptime_sec", "version"}; !slices.Equal(keys, want) {
		t.Fatalf("stats keys %v, want exactly %v", keys, want)
	}
	if st["max_node_id"] == 0.0 || st["max_link_id"] == 0.0 {
		t.Fatalf("stats did not report id high-water marks: %s", body)
	}
}

// TestMutationWireRoundTrip pins the wire encoding of every mutation
// kind.
func TestMutationWireRoundTrip(t *testing.T) {
	n := graph.NewNode(42, graph.TypeUser)
	n.Attrs.Add("name", "jane")
	l := graph.NewLink(7, 42, 43, graph.TypeAct, graph.SubtypeTag)
	l.AddAttr("tags", "museum")
	prev := graph.NewLink(7, 42, 43, graph.TypeAct)
	muts := []graph.Mutation{
		{Kind: graph.MutAddNode, Node: n},
		{Kind: graph.MutPutNode, Node: n},
		{Kind: graph.MutRemoveNode, Node: n},
		{Kind: graph.MutAddLink, Link: l},
		{Kind: graph.MutPutLink, Link: l, Prev: prev},
		{Kind: graph.MutRemoveLink, Link: l},
	}
	for _, m := range muts {
		buf, err := json.Marshal(MutationToWire(m))
		if err != nil {
			t.Fatal(err)
		}
		var w MutationWire
		if err := json.Unmarshal(buf, &w); err != nil {
			t.Fatal(err)
		}
		got, err := w.Mutation()
		if err != nil {
			t.Fatalf("%s: %v", m.Kind, err)
		}
		if got.Kind != m.Kind {
			t.Fatalf("kind %s round-tripped to %s", m.Kind, got.Kind)
		}
		if m.Node != nil && !got.Node.Equal(m.Node) {
			t.Fatalf("%s: node %s round-tripped to %s", m.Kind, m.Node, got.Node)
		}
		if m.Link != nil && !got.Link.Equal(m.Link) {
			t.Fatalf("%s: link %s round-tripped to %s", m.Kind, m.Link, got.Link)
		}
		if (m.Prev == nil) != (got.Prev == nil) || (m.Prev != nil && !got.Prev.Equal(m.Prev)) {
			t.Fatalf("%s: prev mismatch", m.Kind)
		}
	}
	if _, err := (MutationWire{Op: "explode"}).Mutation(); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := (MutationWire{Op: "add-link"}).Mutation(); err == nil {
		t.Fatal("add-link without link accepted")
	}
}
