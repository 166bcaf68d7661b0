package topk_test

import (
	"context"
	"fmt"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/topk"
)

// exampleGraph is the shared fixture: four friends, three items, two tags.
// For user 1 (network {2, 3}): score_go(11) = 2, score_go(12) = 1,
// score_db(12) = 1 — so for query {go, db}, items 11 and 12 tie at 2 and
// the ascending-id tie-break ranks 11 first.
func exampleGraph() *graph.Graph {
	b := graph.NewBuilder()
	for i := 1; i <= 4; i++ {
		b.NodeWithID(graph.NodeID(i), []string{graph.TypeUser})
	}
	for i := 11; i <= 13; i++ {
		b.NodeWithID(graph.NodeID(i), []string{graph.TypeItem})
	}
	b.Link(1, 2, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(1, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(3, 4, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 12, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go", "tags", "db")
	b.Link(4, 13, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "db")
	return b.Graph()
}

// ExampleNew wires an activity-driven index into a top-k processor.
func ExampleNew() {
	g := exampleGraph()
	clustering, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		panic(err)
	}
	ix, err := index.Build(index.Extract(g), clustering, scoring.CountF)
	if err != nil {
		panic(err)
	}
	p, err := topk.New(ix, scoring.SumG)
	if err != nil {
		panic(err)
	}
	fmt.Println("index entries:", p.Index().EntryCount())
	// Output:
	// index entries: 11
}

// ExampleProcessor_TopKCtx answers the same query with all three strategies;
// the rankings are identical, only the work differs.
func ExampleProcessor_TopKCtx() {
	g := exampleGraph()
	clustering, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		panic(err)
	}
	ix, err := index.Build(index.Extract(g), clustering, scoring.CountF)
	if err != nil {
		panic(err)
	}
	p, err := topk.New(ix, scoring.SumG)
	if err != nil {
		panic(err)
	}
	for _, s := range []topk.Strategy{topk.Exhaustive, topk.TA, topk.NRA} {
		results, stats, err := p.TopKCtx(context.Background(), 1, []string{"go", "db"}, 2, s)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s:", s)
		for _, r := range results {
			fmt.Printf(" item=%d score=%.0f", r.Item, r.Score)
		}
		fmt.Printf(" (postings=%d rescores=%d)\n", stats.PostingsScanned, stats.ExactScores)
	}
	// Output:
	// exhaustive: item=11 score=2 item=12 score=2 (postings=6 rescores=6)
	// ta: item=11 score=2 item=12 score=2 (postings=2 rescores=4)
	// nra: item=11 score=2 item=12 score=2 (postings=2 rescores=4)
}
