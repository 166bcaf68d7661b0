package core

import (
	"testing"

	"socialscope/internal/graph"
)

// travelFixture builds a miniature Y!Travel-style social content graph used
// across the operator tests:
//
//	users:   John(101), Ann(102), Bob(103), Eve(104)
//	places:  Coors Field(201, near Denver), Ballpark Museum(202, near
//	         Denver), Golden Gate(203, San Francisco), Parc(204, Barcelona)
//	friend:  John→Ann, John→Bob, Ann→Eve
//	visit:   Ann→201, Ann→202, Bob→201, Bob→203, Eve→204, John→202
//	tag:     Ann tags 201 'baseball'
type fixture struct {
	g *graph.Graph
	// node ids
	john, ann, bob, eve            graph.NodeID
	coors, museum, gate, parc      graph.NodeID
	fJohnAnn, fJohnBob, fAnnEve    graph.LinkID
	vAnnCoors, vAnnMuseum          graph.LinkID
	vBobCoors, vBobGate            graph.LinkID
	vEveParc, vJohnMuseum, tAnnTag graph.LinkID
}

func travelFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{g: graph.New()}
	addNode := func(id graph.NodeID, types []string, kv ...string) graph.NodeID {
		n := graph.NewNode(id, types...)
		n.Attrs = graph.NewAttrs(kv...)
		if err := f.g.AddNode(n); err != nil {
			t.Fatal(err)
		}
		return id
	}
	addLink := func(id graph.LinkID, src, tgt graph.NodeID, types []string, kv ...string) graph.LinkID {
		l := graph.NewLink(id, src, tgt, types...)
		l.SetAttrs(graph.NewAttrs(kv...))
		if err := f.g.AddLink(l); err != nil {
			t.Fatal(err)
		}
		return id
	}
	f.john = addNode(101, []string{graph.TypeUser, "traveler"}, "name", "John", "interests", "baseball")
	f.ann = addNode(102, []string{graph.TypeUser}, "name", "Ann")
	f.bob = addNode(103, []string{graph.TypeUser}, "name", "Bob")
	f.eve = addNode(104, []string{graph.TypeUser}, "name", "Eve")
	f.coors = addNode(201, []string{graph.TypeItem, "destination"},
		"name", "Coors Field", "city", "Denver", "keywords", "baseball near Denver", "rating", "0.9")
	f.museum = addNode(202, []string{graph.TypeItem, "destination"},
		"name", "Ballpark Museum", "city", "Denver", "keywords", "baseball museum near Denver", "rating", "0.6")
	f.gate = addNode(203, []string{graph.TypeItem, "destination"},
		"name", "Golden Gate", "city", "San Francisco", "keywords", "bridge views", "rating", "0.8")
	f.parc = addNode(204, []string{graph.TypeItem, "destination"},
		"name", "Parc de la Ciutadella", "city", "Barcelona", "keywords", "family park babies", "rating", "0.7")

	f.fJohnAnn = addLink(301, f.john, f.ann, []string{graph.TypeConnect, graph.SubtypeFriend})
	f.fJohnBob = addLink(302, f.john, f.bob, []string{graph.TypeConnect, graph.SubtypeFriend})
	f.fAnnEve = addLink(303, f.ann, f.eve, []string{graph.TypeConnect, graph.SubtypeFriend})

	f.vAnnCoors = addLink(401, f.ann, f.coors, []string{graph.TypeAct, graph.SubtypeVisit})
	f.vAnnMuseum = addLink(402, f.ann, f.museum, []string{graph.TypeAct, graph.SubtypeVisit})
	f.vBobCoors = addLink(403, f.bob, f.coors, []string{graph.TypeAct, graph.SubtypeVisit})
	f.vBobGate = addLink(404, f.bob, f.gate, []string{graph.TypeAct, graph.SubtypeVisit})
	f.vEveParc = addLink(405, f.eve, f.parc, []string{graph.TypeAct, graph.SubtypeVisit})
	f.vJohnMuseum = addLink(406, f.john, f.museum, []string{graph.TypeAct, graph.SubtypeVisit})

	f.tAnnTag = addLink(501, f.ann, f.coors, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "baseball")
	return f
}

// tri builds the Remarks' example: G1 = {(a,b),(a,c),(b,c)} on nodes
// a=1,b=2,c=3 and G2 = {(a,b)}.
func triExample(t testing.TB) (g1, g2 *graph.Graph) {
	t.Helper()
	g1 = graph.New()
	for id := graph.NodeID(1); id <= 3; id++ {
		if err := g1.AddNode(graph.NewNode(id, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		id       graph.LinkID
		src, tgt graph.NodeID
	}{{1, 1, 2}, {2, 1, 3}, {3, 2, 3}} {
		if err := g1.AddLink(graph.NewLink(e.id, e.src, e.tgt, graph.TypeConnect)); err != nil {
			t.Fatal(err)
		}
	}
	g2 = graph.New()
	if err := g2.AddNode(graph.NewNode(1, graph.TypeUser)); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddNode(graph.NewNode(2, graph.TypeUser)); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddLink(graph.NewLink(1, 1, 2, graph.TypeConnect)); err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func nodeIDs(g *graph.Graph) []graph.NodeID { return g.NodeIDs() }

func hasNodeIDs(t *testing.T, g *graph.Graph, want ...graph.NodeID) {
	t.Helper()
	if g.NumNodes() != len(want) {
		t.Fatalf("node count = %d, want %d (%v vs %v)", g.NumNodes(), len(want), g.NodeIDs(), want)
	}
	for _, id := range want {
		if !g.HasNode(id) {
			t.Fatalf("missing node %d; have %v", id, g.NodeIDs())
		}
	}
}
