package socialscope

import (
	"context"
	"testing"

	"socialscope/internal/discovery"
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
