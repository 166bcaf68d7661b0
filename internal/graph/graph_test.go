package graph

import (
	"errors"
	"reflect"
	"testing"
)

// buildSample constructs the paper's running micro-example: John (user,
// traveler) tagged Denver (item, city) with 'rockies baseball'.
func buildSample(t *testing.T) *Graph {
	t.Helper()
	g := New()
	john := NewNode(1, TypeUser, "traveler")
	john.Attrs.Set("name", "John")
	denver := NewNode(2, TypeItem, "city")
	denver.Attrs.Set("name", "Denver")
	denver.Attrs.Set("keywords", "skiing")
	if err := g.AddNode(john); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(denver); err != nil {
		t.Fatal(err)
	}
	tag := NewLink(12, 1, 2, TypeAct, SubtypeTag)
	tag.SetAttr("date", "2008-8-2")
	tag.SetAttr("tags", "rockies", "baseball")
	if err := g.AddLink(tag); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAddAndLookup(t *testing.T) {
	g := buildSample(t)
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("size = %d nodes %d links", g.NumNodes(), g.NumLinks())
	}
	if n := g.Node(1); n == nil || n.Attrs.Get("name") != "John" {
		t.Errorf("Node(1) = %v", n)
	}
	if l := g.Link(12); l == nil || !l.HasType(SubtypeTag) {
		t.Errorf("Link(12) = %v", l)
	}
	if g.Node(99) != nil || g.Link(99) != nil {
		t.Error("lookup of absent ids should be nil")
	}
}

func TestAddErrors(t *testing.T) {
	g := buildSample(t)
	if err := g.AddNode(NewNode(1, TypeUser)); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate node error = %v", err)
	}
	if err := g.AddLink(NewLink(12, 1, 2, TypeAct)); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate link error = %v", err)
	}
	if err := g.AddLink(NewLink(13, 1, 99, TypeAct)); !errors.Is(err, ErrMissingEnd) {
		t.Errorf("dangling endpoint error = %v", err)
	}
	if err := g.AddNode(nil); !errors.Is(err, ErrNilElement) {
		t.Errorf("nil node error = %v", err)
	}
	if err := g.AddLink(nil); !errors.Is(err, ErrNilElement) {
		t.Errorf("nil link error = %v", err)
	}
}

func TestPutConsolidates(t *testing.T) {
	g := buildSample(t)
	dup := NewNode(1, TypeUser, "expert")
	dup.Attrs.Set("interests", "baseball")
	g.PutNode(dup)
	n := g.Node(1)
	if !n.HasType("expert") || !n.HasType("traveler") {
		t.Errorf("consolidation lost types: %v", n.Types)
	}
	if n.Attrs.Get("interests") != "baseball" || n.Attrs.Get("name") != "John" {
		t.Errorf("consolidation lost attrs: %v", n.Attrs)
	}

	dupL := NewLink(12, 1, 2, TypeAct, SubtypeReview)
	if err := g.PutLink(dupL); err != nil {
		t.Fatal(err)
	}
	if l := g.Link(12); !l.HasType(SubtypeReview) || !l.HasType(SubtypeTag) {
		t.Errorf("link consolidation lost types: %v", l.Types())
	}
	// Consolidating a link with different endpoints is rejected.
	bad := NewLink(12, 2, 1, TypeAct)
	if err := g.PutLink(bad); !errors.Is(err, ErrEndpointChange) {
		t.Errorf("endpoint change error = %v", err)
	}
}

func TestAdjacency(t *testing.T) {
	g := buildSample(t)
	out := g.Out(1)
	if len(out) != 1 || out[0].ID != 12 {
		t.Errorf("Out(1) = %v", out)
	}
	in := g.In(2)
	if len(in) != 1 || in[0].ID != 12 {
		t.Errorf("In(2) = %v", in)
	}
	if g.OutDegree(1) != 1 || g.InDegree(1) != 0 || g.InDegree(2) != 1 {
		t.Error("degree bookkeeping wrong")
	}
	if nb := g.Neighbors(1); !reflect.DeepEqual(nb, []NodeID{2}) {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	if inc := g.Incident(2); len(inc) != 1 {
		t.Errorf("Incident(2) = %v", inc)
	}
}

func TestRemove(t *testing.T) {
	g := buildSample(t)
	g.RemoveLink(12)
	if g.NumLinks() != 0 || g.OutDegree(1) != 0 || g.InDegree(2) != 0 {
		t.Error("RemoveLink left residue")
	}
	g.RemoveLink(12) // idempotent
	g2 := buildSample(t)
	g2.RemoveNode(1)
	if g2.NumNodes() != 1 || g2.NumLinks() != 0 {
		t.Errorf("RemoveNode left %d nodes %d links", g2.NumNodes(), g2.NumLinks())
	}
	if err := g2.Validate(); err != nil {
		t.Errorf("invalid after removal: %v", err)
	}
	g2.RemoveNode(1) // idempotent
}

func TestDeterministicOrder(t *testing.T) {
	g := New()
	for _, id := range []NodeID{5, 3, 9, 1} {
		if err := g.AddNode(NewNode(id, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	want := []NodeID{1, 3, 5, 9}
	if got := g.NodeIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("NodeIDs = %v", got)
	}
	ns := g.Nodes()
	for i, n := range ns {
		if n.ID != want[i] {
			t.Errorf("Nodes()[%d].ID = %d", i, n.ID)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	g := buildSample(t)
	c := g.Clone()
	c.Node(1).Attrs.Set("name", "NotJohn")
	c.Link(12).SetAttr("tags", "soccer")
	if g.Node(1).Attrs.Get("name") != "John" {
		t.Error("Clone shares node attrs")
	}
	if !g.Link(12).Attrs().Has("tags", "rockies") {
		t.Error("Clone shares link attrs")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
	if !g.Equal(buildSample(t)) {
		t.Error("original changed")
	}
}

func TestShallowCloneShares(t *testing.T) {
	g := buildSample(t)
	// A fan of parallel links exercises multi-entry adjacency lists.
	for id := LinkID(20); id < 28; id++ {
		if err := g.AddLink(NewLink(id, 1, 2, TypeAct)); err != nil {
			t.Fatal(err)
		}
	}
	c := g.ShallowClone()
	if c.Node(1) != g.Node(1) {
		t.Error("ShallowClone should share node values")
	}
	// Adjacency order is deterministic — ascending link id — and identical
	// between a graph and its clones, its deep copy and its induced
	// subgraphs: a regression guard for the map-iteration-order rebuild the
	// old clone paths performed.
	wantOrder := []LinkID{12, 20, 21, 22, 23, 24, 25, 26, 27}
	assertOrder := func(name string, sub *Graph) {
		t.Helper()
		var gotOut, gotIn []LinkID
		for _, l := range sub.Out(1) {
			gotOut = append(gotOut, l.ID)
		}
		for _, l := range sub.In(2) {
			gotIn = append(gotIn, l.ID)
		}
		if !reflect.DeepEqual(gotOut, wantOrder) || !reflect.DeepEqual(gotIn, wantOrder) {
			t.Errorf("%s adjacency order: out=%v in=%v, want %v", name, gotOut, gotIn, wantOrder)
		}
	}
	assertOrder("graph", g)
	assertOrder("shallow clone", c)
	assertOrder("deep clone", g.Clone())
	assertOrder("induced-by-nodes", g.InducedByNodes(map[NodeID]struct{}{1: {}, 2: {}}))
	allLinks := make(map[LinkID]struct{})
	for _, l := range g.Links() {
		allLinks[l.ID] = struct{}{}
	}
	assertOrder("induced-by-links", g.InducedByLinks(allLinks))

	c.RemoveLink(12)
	if g.NumLinks() != 9 {
		t.Error("ShallowClone structure not independent")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("shallow clone invalid: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("origin invalid after clone write: %v", err)
	}
}

// TestSnapshotIsolation pins the persistent-storage contract Engine.Apply
// relies on: a ShallowClone taken before a write burst is bit-for-bit
// stable while its origin keeps mutating — and, run under -race, that
// readers of the snapshot never touch memory the writer is changing.
func TestSnapshotIsolation(t *testing.T) {
	g := New()
	for i := NodeID(1); i <= 200; i++ {
		if err := g.AddNode(NewNode(i, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	for i := LinkID(1); i <= 199; i++ {
		if err := g.AddLink(NewLink(i, NodeID(i), NodeID(i+1), TypeConnect)); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.ShallowClone()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pass := 0; pass < 20; pass++ {
			if snap.NumNodes() != 200 || snap.NumLinks() != 199 {
				t.Errorf("snapshot resized: %v", snap)
				return
			}
			for i := NodeID(1); i <= 200; i++ {
				if !snap.HasNode(i) {
					t.Errorf("snapshot lost node %d", i)
					return
				}
			}
			if err := snap.Validate(); err != nil {
				t.Errorf("snapshot invalid mid-writes: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		id := NodeID(201 + i)
		if err := g.AddNode(NewNode(id, TypeUser)); err != nil {
			t.Fatal(err)
		}
		if err := g.AddLink(NewLink(LinkID(200+i), id, NodeID(1+i%200), TypeConnect)); err != nil {
			t.Fatal(err)
		}
		g.RemoveLink(LinkID(1 + i%150))
	}
	<-done
	if err := g.Validate(); err != nil {
		t.Fatalf("writer graph invalid: %v", err)
	}
}

// TestIDHighWaterMark pins the ID-reuse fix: removing the max-id element
// and allocating a fresh id must not resurrect the retracted one, across
// clones and encode/decode.
func TestIDHighWaterMark(t *testing.T) {
	g := buildSample(t)
	g.RemoveNode(2) // max node id, cascades link 12 (max link id)
	if g.MaxNodeID() != 2 || g.MaxLinkID() != 12 {
		t.Fatalf("high-water marks retreated: node=%d link=%d", g.MaxNodeID(), g.MaxLinkID())
	}
	ids := IDSourceFor(g)
	if n := ids.NextNode(); n != 3 {
		t.Errorf("NextNode after removal = %d, want 3 (no reuse of 2)", n)
	}
	if l := ids.NextLink(); l != 13 {
		t.Errorf("NextLink after removal = %d, want 13 (no reuse of 12)", l)
	}
	for _, c := range map[string]*Graph{"shallow": g.ShallowClone(), "deep": g.Clone()} {
		if c.MaxNodeID() != 2 || c.MaxLinkID() != 12 {
			t.Errorf("clone dropped high-water marks: node=%d link=%d", c.MaxNodeID(), c.MaxLinkID())
		}
	}
}

func TestInducedByNodes(t *testing.T) {
	g := buildSample(t)
	// Only John: the tag link must drop (its target is absent).
	sub := g.InducedByNodes(map[NodeID]struct{}{1: {}})
	if sub.NumNodes() != 1 || sub.NumLinks() != 0 {
		t.Errorf("induced = %v", sub)
	}
	// Both endpoints: link survives.
	sub2 := g.InducedByNodes(map[NodeID]struct{}{1: {}, 2: {}})
	if sub2.NumLinks() != 1 {
		t.Errorf("induced with both endpoints lost link")
	}
	if err := sub2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInducedByLinks(t *testing.T) {
	g := buildSample(t)
	sub := g.InducedByLinks(map[LinkID]struct{}{12: {}})
	if sub.NumNodes() != 2 || sub.NumLinks() != 1 {
		t.Errorf("induced = %v", sub)
	}
	// Unknown link ids are ignored.
	sub2 := g.InducedByLinks(map[LinkID]struct{}{99: {}})
	if sub2.NumNodes() != 0 || sub2.NumLinks() != 0 {
		t.Errorf("induced by unknown link = %v", sub2)
	}
}

func TestEqual(t *testing.T) {
	a, b := buildSample(t), buildSample(t)
	if !a.Equal(b) {
		t.Error("identical graphs unequal")
	}
	b.Node(1).SetScore(0.7)
	if a.Equal(b) {
		t.Error("score difference not detected")
	}
}

func TestMaxIDs(t *testing.T) {
	g := buildSample(t)
	if g.MaxNodeID() != 2 || g.MaxLinkID() != 12 {
		t.Errorf("max ids = %d,%d", g.MaxNodeID(), g.MaxLinkID())
	}
	if New().MaxNodeID() != 0 || New().MaxLinkID() != 0 {
		t.Error("empty graph maxima should be 0")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := buildSample(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("fresh graph invalid: %v", err)
	}
	// Corrupt: delete a node map entry behind the adjacency index's back.
	g.nodes = g.nodes.Delete(2)
	if err := g.Validate(); err == nil {
		t.Error("Validate missed dangling endpoint")
	}
}

func TestIDSource(t *testing.T) {
	g := buildSample(t)
	ids := IDSourceFor(g)
	if n := ids.NextNode(); n != 3 {
		t.Errorf("NextNode = %d, want 3", n)
	}
	if l := ids.NextLink(); l != 13 {
		t.Errorf("NextLink = %d, want 13", l)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder()
	u := b.Node([]string{TypeUser}, "name", "Selma")
	i := b.Node([]string{TypeItem}, "name", "Parc de la Ciutadella")
	l := b.Link(u, i, []string{TypeAct, SubtypeVisit})
	g := b.Graph()
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("builder graph = %v", g)
	}
	if g.Link(l).Src != u || g.Link(l).Tgt != i {
		t.Error("builder link endpoints wrong")
	}
	b.NodeWithID(100, []string{TypeTopic}, "name", "family")
	if next := b.IDs().NextNode(); next != 101 {
		t.Errorf("NodeWithID did not advance allocator: next=%d", next)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestNodeLinkString(t *testing.T) {
	g := buildSample(t)
	ns := g.Node(1).String()
	if ns != "{id=1; type='traveler,user'; name=John}" {
		t.Errorf("node String = %q", ns)
	}
	ls := g.Link(12).String()
	if ls != "l12(1->2){type='act,tag'; date=2008-8-2; tags=rockies,baseball}" {
		t.Errorf("link String = %q", ls)
	}
}

func TestDirection(t *testing.T) {
	if Src.Opposite() != Tgt || Tgt.Opposite() != Src {
		t.Error("Opposite broken")
	}
	if Src.String() != "src" || Tgt.String() != "tgt" {
		t.Error("String broken")
	}
	l := NewLink(1, 10, 20, TypeConnect)
	if l.End(Src) != 10 || l.End(Tgt) != 20 {
		t.Error("End broken")
	}
}

// TestPutConsolidationPreservesSnapshots: PutNode/PutLink merge on a
// clone and swap it in, so a ShallowClone taken before the consolidation
// keeps the pre-merge element values.
func TestPutConsolidationPreservesSnapshots(t *testing.T) {
	g := buildSample(t)
	snap := g.ShallowClone()
	n := NewNode(1, TypeUser)
	n.Attrs.Set("name", "Johnny")
	g.PutNode(n)
	l := NewLink(12, 1, 2, TypeAct)
	l.AddAttr("tags", "mountains")
	if err := g.PutLink(l); err != nil {
		t.Fatal(err)
	}
	if names := g.Node(1).Attrs.All("name"); len(names) != 2 {
		t.Errorf("merge lost: names = %v, want union [John Johnny]", names)
	}
	if names := snap.Node(1).Attrs.All("name"); len(names) != 1 || names[0] != "John" {
		t.Errorf("snapshot observed consolidation: names = %v", names)
	}
	if tags := snap.Link(12).Attrs().All("tags"); len(tags) != 2 {
		t.Errorf("snapshot observed link consolidation: tags = %v", tags)
	}
	if tags := g.Link(12).Attrs().All("tags"); len(tags) != 3 {
		t.Errorf("link merge lost: tags = %v", tags)
	}
}
