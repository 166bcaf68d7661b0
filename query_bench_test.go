package socialscope

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/workload"
)

// BenchmarkEngineQueryCtx is one computed read as the bench/ ledger's
// tagged workloads issue it: the ledger's corpus, the query "museum
// family", a rotation of 16 users. The index is built before the timer
// starts, so every iteration runs top-k, discovery, presentation and
// explanations over one snapshot.
func BenchmarkEngineQueryCtx(b *testing.B) {
	eng, users := allocPinEngine(b)
	q, err := discovery.ParseQuery("museum family")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.QueryCtx(ctx, users[0], q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryCtx(ctx, users[i%len(users)], q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNeighbourhoodBuild is the first read of a snapshot's
// neighbourhood view on the ledger's corpus. A ShallowClone of a graph no
// reader has asked for its view carries none, so each iteration's first
// Acts call builds the view from the adjacency.
func BenchmarkNeighbourhoodBuild(b *testing.B) {
	corpus, err := benchCorpus()
	if err != nil {
		b.Fatal(err)
	}
	u := corpus.Users[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(corpus.Graph.ShallowClone().Acts(u)) == 0 {
			b.Fatalf("user %d acted on nothing", u)
		}
	}
}

// fusionReads draws n reads the way the bench/ ledger's fusion_mix draws
// its searches: three structural reads "<tag> type:destination rating>=r"
// to one empty read, each for a user drawn uniformly, from a fixed seed.
func fusionReads(t testing.TB, users []NodeID, n int) ([]NodeID, []discovery.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	who := make([]NodeID, n)
	qs := make([]discovery.Query, n)
	for i := range qs {
		who[i] = users[rng.Intn(len(users))]
		text := ""
		if rng.Intn(4) != 0 {
			text = fmt.Sprintf("%s type:destination rating>=%.1f",
				workload.Categories[rng.Intn(len(workload.Categories))], 0.3+0.1*float64(rng.Intn(6)))
		}
		q, err := discovery.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		q.K = 10
		qs[i] = q
	}
	return who, qs
}

// BenchmarkEngineQueryFusion is one fusion-path read as fusion_mix issues
// it, on the ledger's corpus: discovery over the item catalog, then
// presentation and explanations. The catalog is built before the timer
// starts.
func BenchmarkEngineQueryFusion(b *testing.B) {
	eng, users := benchCorpusEngine(b)
	who, qs := fusionReads(b, users, 64)
	ctx := context.Background()
	if _, err := eng.QueryCtx(ctx, who[0], qs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryCtx(ctx, who[i%len(who)], qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverFusion is the discovery stage of BenchmarkEngineQueryFusion
// alone: Discoverer.Discover, the traced ledger's discovery.fusion_us.
func BenchmarkDiscoverFusion(b *testing.B) {
	eng, users := benchCorpusEngine(b)
	who, qs := fusionReads(b, users, 64)
	d := eng.state.Load().disc
	if _, err := d.Discover(who[0], qs[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Discover(who[i%len(who)], qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRecommend is one /recommend read as fusion_mix issues it:
// the ledger's corpus, collaborative filtering (CFStepwise) at the
// engine's match threshold, for 64 users drawn uniformly from a fixed
// seed.
func BenchmarkEngineRecommend(b *testing.B) {
	eng, users := benchCorpusEngine(b)
	rng := rand.New(rand.NewSource(42))
	who := make([]NodeID, 64)
	for i := range who {
		who[i] = users[rng.Intn(len(users))]
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RecommendCtx(ctx, who[i%len(who)], discovery.CFStepwise); err != nil {
			b.Fatal(err)
		}
	}
}
