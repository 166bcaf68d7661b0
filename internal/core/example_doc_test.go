package core_test

import (
	"fmt"

	"socialscope/internal/core"
	"socialscope/internal/graph"
)

// ExampleParse shows the textual algebra: Example 4's G1 — the friendship
// network of the user with id 1 — evaluated against a three-user site.
func ExampleParse() {
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser}, "name", "John")
	ann := b.Node([]string{graph.TypeUser}, "name", "Ann")
	bob := b.Node([]string{graph.TypeUser}, "name", "Bob")
	b.Link(john, ann, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(ann, bob, []string{graph.TypeConnect, graph.SubtypeFriend})

	expr, err := core.Parse("selectL{type=friend}(semijoin(src,src)(G, selectN{id=1}(G)))")
	if err != nil {
		panic(err)
	}
	result, err := expr.Eval(core.NewContext(b.Graph()))
	if err != nil {
		panic(err)
	}
	fmt.Printf("links=%d nodes=%d\n", result.NumLinks(), result.NumNodes())
	// Output:
	// links=1 nodes=2
}

// ExampleNodeAggregate shows γN: counting each user's friends into a
// fnd_cnt attribute, the paper's Definition 9 example.
func ExampleNodeAggregate() {
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser}, "name", "John")
	ann := b.Node([]string{graph.TypeUser}, "name", "Ann")
	bob := b.Node([]string{graph.TypeUser}, "name", "Bob")
	b.Link(john, ann, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(john, bob, []string{graph.TypeConnect, graph.SubtypeFriend})

	out, err := core.NodeAggregate(b.Graph(),
		core.NewCondition(core.Cond("type", graph.SubtypeFriend)),
		graph.Src, "fnd_cnt", core.Num(core.Count()))
	if err != nil {
		panic(err)
	}
	n, _ := out.Node(john).Attrs.Int("fnd_cnt")
	fmt.Println("John's friends:", n)
	// Output:
	// John's friends: 2
}

// ExamplePatternAggregate shows the Figure 2 graph pattern: one link per
// destination reachable over a match-visit path, scored by the average
// similarity of the paths.
func ExamplePatternAggregate() {
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser}, "name", "John")
	peer := b.Node([]string{graph.TypeUser}, "name", "Peer")
	dest := b.Node([]string{graph.TypeItem, "destination"}, "name", "Coors Field")
	b.Link(john, peer, []string{graph.TypeMatch}, "sim", "0.8")
	b.Link(peer, dest, []string{graph.TypeAct, graph.SubtypeVisit})
	g := b.Graph()

	pattern := core.Pattern{
		Start: core.NewCondition(core.Cond("id", "1")),
		Steps: []core.PatternStep{
			{Link: core.NewCondition(core.Cond("type", "match"))},
			{Link: core.NewCondition(core.Cond("type", "visit")),
				Node: core.NewCondition(core.Cond("type", "destination"))},
		},
	}
	out, err := core.PatternAggregate(g, pattern, "score",
		core.AvgPathAttr(0, "sim"), graph.IDSourceFor(g))
	if err != nil {
		panic(err)
	}
	for _, l := range out.Links() {
		fmt.Printf("recommend %d -> %d score=%s\n", l.Src, l.Tgt, l.Attrs().Get("score"))
	}
	// Output:
	// recommend 1 -> 3 score=0.8
}
