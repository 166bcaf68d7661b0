package index_test

import (
	"context"
	"fmt"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/topk"
)

// ExampleBuild materializes the Section 6.2 network-aware inverted lists
// over a four-user tagging site and answers a top-k query against them.
func ExampleBuild() {
	b := graph.NewBuilder()
	for i := 1; i <= 4; i++ {
		b.NodeWithID(graph.NodeID(i), []string{graph.TypeUser})
	}
	for i := 11; i <= 13; i++ {
		b.NodeWithID(graph.NodeID(i), []string{graph.TypeItem})
	}
	// Friendships: 1-2, 1-3, 2-3, 3-4.
	b.Link(1, 2, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(1, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(3, 4, []string{graph.TypeConnect, graph.SubtypeFriend})
	// Taggings: score_go(11, u1) = |{u2, u3}| = 2, score_go(12, u1) = 1.
	b.Link(2, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 12, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	g := b.Graph()

	clustering, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		panic(err)
	}
	ix, err := index.Build(index.Extract(g), clustering, scoring.CountF)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lists=%d entries=%d bytes=%d\n", ix.NumLists(), ix.EntryCount(), ix.SizeBytes())
	for _, e := range ix.List(1, "go") {
		fmt.Printf("item %d stored score %.0f\n", e.Item, e.Score)
	}
	proc, err := topk.New(ix, scoring.SumG)
	if err != nil {
		panic(err)
	}
	results, _, err := proc.TopKCtx(context.Background(), 1, []string{"go"}, 2, topk.TA)
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("top: item %d score %.0f\n", r.Item, r.Score)
	}
	// Output:
	// lists=4 entries=7 bytes=70
	// item 11 stored score 2
	// item 12 stored score 1
	// top: item 11 score 2
	// top: item 12 score 1
}
