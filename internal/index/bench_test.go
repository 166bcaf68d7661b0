package index

import (
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// ledgerCorpus is the corpus the bench/ ledger serves.
var ledgerCorpus = workload.TravelConfig{
	Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
}

func benchData(b *testing.B) (*Data, *graph.Graph) {
	b.Helper()
	g := randomTagGraph(42, 60, 120, 8)
	return Extract(g), g
}

func BenchmarkExtract(b *testing.B) {
	g := randomTagGraph(42, 60, 120, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(g)
	}
}

// BenchmarkIndexBuild times a cold Build over the ledger's corpus under
// each strategy, θ 0.1 where the strategy takes one: the build the first
// tagged query after New, OpenDurable, OpenFollower or Analyze runs.
func BenchmarkIndexBuild(b *testing.B) {
	c, err := workload.Travel(ledgerCorpus)
	if err != nil {
		b.Fatal(err)
	}
	d := Extract(c.Graph)
	for _, s := range allStrategies {
		cl, err := cluster.Build(c.Graph, s, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(d, cl, scoring.CountF); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalUpdate times one-link ApplyDelta batches: each
// iteration folds a fresh tagging into a new index snapshot.
func BenchmarkIncrementalUpdate(b *testing.B) {
	d, g := benchData(b)
	c, err := cluster.Build(g, cluster.NetworkBased, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Build(d, c, scoring.CountF)
	if err != nil {
		b.Fatal(err)
	}
	id := g.MaxLinkID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id++
		l := graph.NewLink(id, d.Users[i%len(d.Users)], d.Items[i%len(d.Items)],
			graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", "benchtag")
		muts := []graph.Mutation{{Kind: graph.MutAddLink, Link: l}}
		ix = ix.ApplyDelta(g, muts)
		b.StopTimer()
		if err := g.ApplyAll(muts); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
