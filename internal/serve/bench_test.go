package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/workload"
)

// ledgerSite serves the bench/ ledger's corpus the way the ledger does:
// 600 users, TA over peruser clusters, a fresh metrics registry. The
// returned handler is Server.Handler(), deadline wrapper included.
func ledgerSite(tb testing.TB) (*Server, *workload.TravelCorpus) {
	tb.Helper()
	if testing.Short() {
		tb.Skip("builds a 600-user corpus")
	}
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser",
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(eng, Config{Obs: obs.NewRegistry()})
	tb.Cleanup(srv.Close)
	return srv, corpus
}

// ledgerSearchPaths draws n cold /search request URIs the way the
// ledger's tagged_cold workload does: a uniform user and 1–3 distinct
// category tags in random order, k = 10, here with nocache=1 so every
// request computes.
func ledgerSearchPaths(users []graph.NodeID, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, n)
	for i := range paths {
		user := users[rng.Intn(len(users))]
		v := url.Values{
			"user": {strconv.FormatInt(int64(user), 10)}, "q": {tagQuery(rng, 1+rng.Intn(3))},
			"k": {"10"}, "nocache": {"1"},
		}
		paths[i] = "/search?" + v.Encode()
	}
	return paths
}

// tagQuery draws n distinct category tags in random order, as the
// ledger's tagged queries do.
func tagQuery(rng *rand.Rand, n int) string {
	tags := make([]string, n)
	for i, p := range rng.Perm(len(workload.Categories))[:n] {
		tags[i] = workload.Categories[p]
	}
	return strings.Join(tags, " ")
}

// BenchmarkServeQueryMiss is one computed /search through the whole
// handler — deadline, limiter, request parsing, the engine, the encoder
// and the write — on the ledger's corpus and query shapes.
func BenchmarkServeQueryMiss(b *testing.B) {
	srv, corpus := ledgerSite(b)
	h := srv.Handler()
	paths := ledgerSearchPaths(corpus.Users, 256, 1)
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", paths[i%len(paths)], w.Code, w.Body)
		}
	}
}

// TestServeQueryMissAllocsPinned pins BenchmarkServeQueryMiss's path at
// about 1.25× what it allocates today, recorder included, averaged over a
// fixed rotation of 16 warm ledger requests.
func TestServeQueryMissAllocsPinned(t *testing.T) {
	srv, corpus := ledgerSite(t)
	h := srv.Handler()
	paths := ledgerSearchPaths(corpus.Users, 16, 1)
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
		// A first read also fills lazily built engine state: warm every request.
		h.ServeHTTP(httptest.NewRecorder(), reqs[i])
	}
	i := 0
	got := testing.AllocsPerRun(len(paths), func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", paths[i%len(paths)], w.Code, w.Body)
		}
		i++
	})
	const bound = 126
	t.Logf("Server.Handler /search miss: %.0f allocs per call (bound %d)", got, bound)
	if got > bound {
		t.Errorf("Server.Handler /search miss allocates %.0f per call, over its pin of %d", got, bound)
	}
}
