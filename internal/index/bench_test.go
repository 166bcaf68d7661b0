package index

import (
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

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

func BenchmarkBuildPerUser(b *testing.B) {
	d, g := benchData(b)
	c, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d, c, scoring.CountF); err != nil {
			b.Fatal(err)
		}
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
