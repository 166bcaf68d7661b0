// Observability overhead: the instrumented benchmarks drive the exact
// same query as the uninstrumented ones, differing only in whether a
// trace span rides the context. The acceptance bar is <5% overhead —
// metrics are always-on atomics, so the span (attr map writes + stage
// timers) is the only toggleable cost.
package socialscope

import (
	"context"
	"testing"

	"socialscope/internal/obs"
	"socialscope/internal/workload"
)

func benchObsEngine(b *testing.B) (*Engine, *workload.TravelCorpus) {
	b.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150, Destinations: 60, Seed: 7, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{
		ItemType: "destination", TopK: TopKTA, Obs: obs.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the lazily built index so neither variant pays for it.
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], workload.Categories[0]); err != nil {
		b.Fatal(err)
	}
	return eng, corpus
}

func BenchmarkUninstrumentedSearch(b *testing.B) {
	eng, corpus := benchObsEngine(b)
	query := workload.Categories[0]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchCtx(ctx, corpus.Users[i%len(corpus.Users)], query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstrumentedSearch(b *testing.B) {
	eng, corpus := benchObsEngine(b)
	query := workload.Categories[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := obs.WithSpan(context.Background(), obs.NewSpan())
		if _, err := eng.SearchCtx(ctx, corpus.Users[i%len(corpus.Users)], query); err != nil {
			b.Fatal(err)
		}
	}
}
