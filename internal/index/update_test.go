package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// TestApplyDeltaOnHandBuiltData pins maintenance through every mutation
// kind over a minimal substrate — in particular addUser followed by a
// connection to a user whose taggings come only from the pre-batch graph,
// and a tagging the same batch asserts and retracts.
func TestApplyDeltaOnHandBuiltData(t *testing.T) {
	b := graph.NewBuilder()
	b.NodeWithID(1, []string{graph.TypeUser})
	b.NodeWithID(2, []string{graph.TypeUser})
	b.NodeWithID(10, []string{graph.TypeItem})
	b.Link(1, 2, []string{graph.TypeConnect})
	b.Link(1, 10, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	g := b.Graph()
	d := Extract(g)
	cl, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	newUser := graph.NewNode(3, graph.TypeUser)
	conn := graph.NewLink(g.MaxLinkID()+1, 3, 1, graph.TypeConnect)
	tagLink := graph.NewLink(g.MaxLinkID()+2, 3, 10, graph.TypeAct, graph.SubtypeTag)
	tagLink.AddAttr("tags", "go")
	ix = ix.ApplyDelta(g, []graph.Mutation{
		{Kind: graph.MutAddNode, Node: newUser},
		{Kind: graph.MutAddLink, Link: conn},
		{Kind: graph.MutAddLink, Link: tagLink},
		{Kind: graph.MutRemoveLink, Link: tagLink.Clone()},
	})
	// After add+retract of user 3's tagging, user 1 scores item 10 only
	// through their own original tagging's visibility.
	if got := ix.Data().ScoreTag(10, 3, "go", scoring.CountF); got != 1 {
		t.Errorf("new user's score = %v, want 1 (sees user 1's tagging)", got)
	}
	if l := ix.List(3, "go"); len(l) != 1 || l[0].Item != 10 {
		t.Errorf("new user's list = %v, want one entry for item 10", l)
	}
}

// Property: a stream of random taggings, each applied as a one-mutation
// ApplyDelta batch, leaves the index identical to a fresh rebuild of the
// mutated graph, and its substrate answering top-k exactly like the
// rebuild's.
func TestQuickIncrementalEqualsRebuild(t *testing.T) {
	f := func(seed int64) bool {
		g := randomTagGraph(seed, 8, 10, 3)
		d := Extract(g)
		cl, err := cluster.Build(g, cluster.NetworkBased, 0.4)
		if err != nil {
			return false
		}
		ix, err := Build(d, cl, scoring.CountF)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		tags := []string{"a", "b", "z"}
		id := g.MaxLinkID()
		for i := 0; i < 12; i++ {
			id++
			l := graph.NewLink(id, d.Users[rng.Intn(len(d.Users))], d.Items[rng.Intn(len(d.Items))],
				graph.TypeAct, graph.SubtypeTag)
			l.AddAttr("tags", tags[rng.Intn(len(tags))])
			muts := []graph.Mutation{{Kind: graph.MutAddLink, Link: l}}
			pre := g.ShallowClone()
			if err := g.ApplyAll(muts); err != nil {
				return false
			}
			ix = ix.ApplyDelta(pre, muts)
		}
		rebuilt, err := Build(Extract(g), cl, scoring.CountF)
		if err != nil {
			return false
		}
		if ix.EntryCount() != rebuilt.EntryCount() {
			return false
		}
		got, want := ix.Data(), rebuilt.Data()
		for _, u := range want.Users {
			for _, tag := range want.Tags {
				if !slices.Equal(ix.List(u, tag), rebuilt.List(u, tag)) {
					return false
				}
			}
			if !slices.Equal(got.ExactTopK(u, want.Tags, 3, scoring.CountF, scoring.SumG),
				want.ExactTopK(u, want.Tags, 3, scoring.CountF, scoring.SumG)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
