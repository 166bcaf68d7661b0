package core

import (
	"testing"

	"socialscope/internal/graph"
)

func TestNodeSelectStructural(t *testing.T) {
	f := travelFixture(t)
	got := NodeSelect(f.g, NewCondition(Cond("type", "destination")), nil)
	hasNodeIDs(t, got, f.coors, f.museum, f.gate, f.parc)
	if got.NumLinks() != 0 {
		t.Error("node selection must produce a null graph (no links)")
	}
	// Input untouched.
	if f.g.NumNodes() != 8 || f.g.NumLinks() != 10 {
		t.Error("NodeSelect mutated its input")
	}
}

func TestNodeSelectByID(t *testing.T) {
	f := travelFixture(t)
	got := NodeSelect(f.g, NewCondition(Cond("id", "101")), nil)
	hasNodeIDs(t, got, f.john)
	inv := NodeSelect(f.g, NewCondition(CondOp("id", Ne, "101"), Cond("type", graph.TypeUser)), nil)
	hasNodeIDs(t, inv, f.ann, f.bob, f.eve)
}

func TestNodeSelectKeywordsScore(t *testing.T) {
	f := travelFixture(t)
	c := NewCondition(Cond("type", "destination")).WithKeywords("baseball denver")
	got := NodeSelect(f.g, c, nil)
	// Coors and Museum match both terms; Gate and Parc match neither.
	hasNodeIDs(t, got, f.coors, f.museum)
	for _, n := range got.Nodes() {
		if !n.Scored || n.Score <= 0 {
			t.Errorf("selected node %d lacks a positive score", n.ID)
		}
	}
	// Scores attach to clones: the base graph's node must stay unscored.
	if f.g.Node(f.coors).Scored {
		t.Error("NodeSelect scored a node of the input graph")
	}
}

func TestNodeSelectCustomScorer(t *testing.T) {
	f := travelFixture(t)
	constant := func(_ []string, _ string) float64 { return 0.42 }
	c := Condition{Keywords: []string{"anything"}}
	got := NodeSelect(f.g, c, constant)
	if got.NumNodes() != f.g.NumNodes() {
		t.Fatalf("constant scorer should admit all nodes, got %d", got.NumNodes())
	}
	if got.Node(f.john).Score != 0.42 {
		t.Error("custom scorer not applied")
	}
	// A scorer returning zero excludes everything.
	zero := func(_ []string, _ string) float64 { return 0 }
	if NodeSelect(f.g, c, zero).NumNodes() != 0 {
		t.Error("zero scorer should exclude all nodes")
	}
}

func TestNodeSelectEmptyCondition(t *testing.T) {
	f := travelFixture(t)
	got := NodeSelect(f.g, Condition{}, nil)
	if got.NumNodes() != f.g.NumNodes() || got.NumLinks() != 0 {
		t.Error("empty condition should select every node as a null graph")
	}
}

func TestLinkSelectInducesEndpoints(t *testing.T) {
	f := travelFixture(t)
	got := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeFriend)), nil)
	if got.NumLinks() != 3 {
		t.Fatalf("friend links = %d, want 3", got.NumLinks())
	}
	hasNodeIDs(t, got, f.john, f.ann, f.bob, f.eve)
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLinkSelectKeywords(t *testing.T) {
	f := travelFixture(t)
	c := Condition{Keywords: []string{"baseball"}}
	got := LinkSelect(f.g, c, nil)
	// Only Ann's tag link mentions baseball in its attrs.
	if got.NumLinks() != 1 || !got.HasLink(f.tAnnTag) {
		t.Fatalf("links = %v", got.LinkIDs())
	}
	l := got.Link(f.tAnnTag)
	if !l.Scored() || l.Score() <= 0 {
		t.Error("selected link lacks a score")
	}
	if f.g.Link(f.tAnnTag).Scored() {
		t.Error("LinkSelect scored a link of the input graph")
	}
}

func TestLinkSelectNumericCondition(t *testing.T) {
	// σL sim>0.5 — the Example 5 step 6 shape.
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser})
	u2 := b.Node([]string{graph.TypeUser})
	l1 := b.Link(u1, u2, []string{graph.TypeMatch}, "sim", "0.7")
	b.Link(u1, u2, []string{graph.TypeMatch}, "sim", "0.3")
	got := LinkSelect(b.Graph(), NewCondition(CondOp("sim", Gt, "0.5")), nil)
	if got.NumLinks() != 1 || !got.HasLink(l1) {
		t.Fatalf("links = %v", got.LinkIDs())
	}
}

func TestLinkSelectEmptyResult(t *testing.T) {
	f := travelFixture(t)
	got := LinkSelect(f.g, NewCondition(Cond("type", "no-such-type")), nil)
	if got.NumNodes() != 0 || got.NumLinks() != 0 {
		t.Error("no matches should give the empty graph")
	}
}
