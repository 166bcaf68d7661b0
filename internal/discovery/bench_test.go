package discovery

import (
	"context"
	"fmt"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/topk"
	"socialscope/internal/workload"
)

func BenchmarkDiscover(b *testing.B) {
	f := buildJohnFixtureB(b)
	d := NewDiscoverer(f.g, "destination")
	q, err := ParseQuery("denver attractions")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Discover(f.john, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFusionAlpha sweeps the semantic/social fusion weight — the
// DESIGN.md ablation #5. Time is flat (the sweep is about result shape);
// the reported metric is how many results each α admits.
func BenchmarkFusionAlpha(b *testing.B) {
	f := buildJohnFixtureB(b)
	d := NewDiscoverer(f.g, "destination")
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			q, err := ParseQuery("denver attractions")
			if err != nil {
				b.Fatal(err)
			}
			q.Alpha = alpha
			n := 0
			for i := 0; i < b.N; i++ {
				msg, err := d.Discover(f.john, q)
				if err != nil {
					b.Fatal(err)
				}
				n = len(msg.Results)
			}
			b.ReportMetric(float64(n), "results")
		})
	}
}

// BenchmarkSocialBasis measures basis selection — the DESIGN.md ablation #4.
func BenchmarkSocialBasis(b *testing.B) {
	f := buildJohnFixtureB(b)
	q, err := ParseQuery("family babies barcelona")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectSocialBasis(f.g, f.selma, q, 1)
	}
}

// benchCF runs cf for Ann, whose visits make Bob a match at threshold
// 0.2, so every call walks the whole plan: John has no act links, and his
// plan stops at step 1.
func benchCF(b *testing.B, cf func(*graph.Graph, graph.NodeID, CFConfig) ([]Recommendation, error), variant CFVariant) {
	f := buildJohnFixtureB(b)
	cfg := CFConfig{Variant: variant, SimThreshold: 0.2}
	if recs, err := cf(f.g, f.ann, cfg); err != nil || len(recs) == 0 {
		b.Fatalf("Ann: recs %v, err %v", recs, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cf(f.g, f.ann, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCFPlan(b *testing.B) { benchCF(b, CollaborativeFiltering, CFStepwise) }

func BenchmarkCFStepwise(b *testing.B) { benchCF(b, CollaborativeFilteringAlgebra, CFStepwise) }

func BenchmarkCFPattern(b *testing.B) { benchCF(b, CollaborativeFilteringAlgebra, CFPattern) }

// BenchmarkRelatedEntities counts Example 3's related users and topics.
// "ledger" is a computed read on the bench/ ledger's corpus: the top 10
// of "museum family" through the tagged path, over a 16-user rotation.
// "k=1000" takes every destination of a 1000-destination corpus as the
// results, the /search cap on k.
func BenchmarkRelatedEntities(b *testing.B) {
	ledger, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := taggedProcessor(b, ledger.Graph)
	d := NewDiscoverer(ledger.Graph, "destination")
	q, err := ParseQuery("museum family")
	if err != nil {
		b.Fatal(err)
	}
	var msgs []*MSG
	for _, u := range ledger.Users[:16] {
		msg, _, err := d.DiscoverTaggedCtx(context.Background(), u, q, p, topk.TA)
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, msg)
	}
	wide, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 1000, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	all := &MSG{User: wide.Users[0]}
	for _, it := range wide.Destinations {
		all.Results = append(all.Results, Result{Item: it})
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		msgs []*MSG
	}{
		{"ledger", ledger.Graph, msgs},
		{"k=1000", wide.Graph, []*MSG{all}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RelatedEntities(c.g, c.msgs[i%len(c.msgs)], 2, 5)
			}
		})
	}
}

// buildJohnFixtureB adapts the test fixture builder to benchmarks.
func buildJohnFixtureB(b *testing.B) *johnFixture { return buildJohnFixture(b) }
