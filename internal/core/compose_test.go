package core

import (
	"testing"
	"testing/quick"

	"socialscope/internal/graph"
)

func TestSemiJoinAgainstNullGraph(t *testing.T) {
	f := travelFixture(t)
	// G ⋉(src,src) σN⟨id=101⟩(G): links leaving John.
	johnNode := NodeSelect(f.g, NewCondition(Cond("id", "101")), nil)
	got := SemiJoin(f.g, johnNode, Delta(graph.Src, graph.Src))
	if got.NumLinks() != 3 { // friend→Ann, friend→Bob, visit→Museum
		t.Fatalf("links leaving John = %v", got.LinkIDs())
	}
	for _, l := range got.Links() {
		if l.Src != f.john {
			t.Errorf("link %d does not leave John", l.ID)
		}
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSemiJoinLinkToLink(t *testing.T) {
	f := travelFixture(t)
	friends := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeFriend)), nil)
	visits := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeVisit)), nil)
	// Friend links whose target is someone who visited something:
	// John→Ann, John→Bob, Ann→Eve all qualify (Ann, Bob, Eve all visited).
	got := SemiJoin(friends, visits, Delta(graph.Tgt, graph.Src))
	if got.NumLinks() != 3 {
		t.Fatalf("semijoin links = %v", got.LinkIDs())
	}
	// Visits whose source is a friend-target: Ann, Bob, Eve's visits (5).
	got2 := SemiJoin(visits, friends, Delta(graph.Src, graph.Tgt))
	if got2.NumLinks() != 5 {
		t.Fatalf("semijoin links = %v", got2.LinkIDs())
	}
	if got2.HasLink(f.vJohnMuseum) {
		t.Error("John's own visit should not qualify (John is no friend target)")
	}
}

func TestSemiJoinFiltersNotCreates(t *testing.T) {
	f := travelFixture(t)
	friends := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeFriend)), nil)
	visits := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeVisit)), nil)
	got := SemiJoin(friends, visits, Delta(graph.Tgt, graph.Src))
	for _, id := range got.LinkIDs() {
		if !friends.HasLink(id) {
			t.Errorf("semi-join invented link %d", id)
		}
	}
}

func TestComposeBasic(t *testing.T) {
	f := travelFixture(t)
	friends := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeFriend)), nil)
	visits := LinkSelect(f.g, NewCondition(Cond("type", graph.SubtypeVisit)), nil)
	ids := graph.IDSourceFor(f.g)
	// friend ∘ visit with δ=(tgt,src): u -friend-> w -visit-> v becomes
	// u -user_friend_item-> v.
	got, err := Compose(friends, visits, Delta(graph.Tgt, graph.Src),
		ConstComposer("user_friend_item"), ids)
	if err != nil {
		t.Fatal(err)
	}
	// John→Ann→{Coors,Museum}, John→Bob→{Coors,Gate}, Ann→Eve→{Parc}: 5.
	if got.NumLinks() != 5 {
		t.Fatalf("composed links = %d, want 5", got.NumLinks())
	}
	for _, l := range got.Links() {
		if !l.HasType("user_friend_item") {
			t.Errorf("composed link lacks stamped type: %v", l.Types())
		}
		if f.g.HasLink(l.ID) {
			t.Errorf("composed link id %d collides with base graph", l.ID)
		}
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
	// Endpoints follow δ̄: sources are users (John/Ann), targets items.
	for _, l := range got.Links() {
		if !got.Node(l.Src).HasType(graph.TypeUser) {
			t.Errorf("composed source %d is not a user", l.Src)
		}
		if !got.Node(l.Tgt).HasType(graph.TypeItem) {
			t.Errorf("composed target %d is not an item", l.Tgt)
		}
	}
}

func TestComposeDirectionality(t *testing.T) {
	// δ=(tgt,tgt): l1.tgt == l2.tgt — the Example 5 step 5 shape, where two
	// users' visit links meeting at a common destination compose into a
	// user-user link.
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser}, "name", "u1")
	u2 := b.Node([]string{graph.TypeUser}, "name", "u2")
	d := b.Node([]string{graph.TypeItem}, "name", "d")
	b.Link(u1, d, []string{graph.SubtypeVisit})
	b.Link(u2, d, []string{graph.SubtypeVisit})
	g := b.Graph()
	ids := graph.IDSourceFor(g)
	got, err := Compose(g, g, Delta(graph.Tgt, graph.Tgt), ConstComposer("meet"), ids)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (l1,l2) with equal targets: (1,1),(1,2),(2,1),(2,2) → 4 links
	// including self-pairs u1→u1.
	if got.NumLinks() != 4 {
		t.Fatalf("composed links = %d, want 4", got.NumLinks())
	}
	srcs := map[graph.NodeID]int{}
	for _, l := range got.Links() {
		srcs[l.Src]++
		if l.Src != u1 && l.Src != u2 {
			t.Errorf("unexpected composed source %d", l.Src)
		}
	}
	if srcs[u1] != 2 || srcs[u2] != 2 {
		t.Errorf("composed fanout = %v", srcs)
	}
}

func TestComposeErrors(t *testing.T) {
	f := travelFixture(t)
	if _, err := Compose(f.g, f.g, Delta(graph.Src, graph.Src), nil, graph.IDSourceFor(f.g)); err == nil {
		t.Error("nil composition function should be rejected")
	}
	if _, err := Compose(f.g, f.g, Delta(graph.Src, graph.Src), ConstComposer("x"), nil); err == nil {
		t.Error("nil id source should be rejected")
	}
}

func TestComposeEmptyInputs(t *testing.T) {
	f := travelFixture(t)
	ids := graph.IDSourceFor(f.g)
	got, err := Compose(graph.New(), f.g, Delta(graph.Src, graph.Src), ConstComposer("x"), ids)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 || got.NumLinks() != 0 {
		t.Error("composition with empty graph should be empty")
	}
}

func TestJaccardComposer(t *testing.T) {
	// Two users with vst attribute sets {a,b} and {b,c}: Jaccard = 1/3.
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser})
	u2 := b.Node([]string{graph.TypeUser})
	d := b.Node([]string{graph.TypeItem})
	b.Graph().Node(u1).Attrs.Set("vst", "a", "b")
	b.Graph().Node(u2).Attrs.Set("vst", "b", "c")
	b.Link(u1, d, []string{graph.SubtypeVisit})
	b.Link(u2, d, []string{graph.SubtypeVisit})
	g := b.Graph()
	dlt := Delta(graph.Tgt, graph.Tgt)
	got, err := Compose(g, g, dlt, JaccardComposer("sim_link", "vst", "sim", dlt), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range got.Links() {
		if l.Src == u1 && l.Tgt == u2 {
			found = true
			if v, ok := l.Attrs().Float("sim"); !ok || v < 0.33 || v > 0.34 {
				t.Errorf("sim = %v, want 1/3", l.Attrs().Get("sim"))
			}
		}
	}
	if !found {
		t.Error("missing u1→u2 composed link")
	}
}

func TestCopyAttrComposer(t *testing.T) {
	b := graph.NewBuilder()
	a := b.Node([]string{graph.TypeUser})
	m := b.Node([]string{graph.TypeUser})
	d := b.Node([]string{graph.TypeItem})
	b.Link(a, m, []string{graph.TypeMatch}, "sim", "0.8")
	b.Link(m, d, []string{graph.SubtypeVisit})
	g := b.Graph()
	got, err := Compose(g, g, Delta(graph.Tgt, graph.Src),
		CopyAttrComposer("rec", "sim", "sim_sc"), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	var recLink *graph.Link
	for _, l := range got.Links() {
		if l.Src == a && l.Tgt == d {
			recLink = l
		}
	}
	if recLink == nil {
		t.Fatal("missing a→d composed link")
	}
	if recLink.Attrs().Get("sim_sc") != "0.8" {
		t.Errorf("sim_sc = %q", recLink.Attrs().Get("sim_sc"))
	}
	if !recLink.HasType("rec") {
		t.Error("composed link missing type")
	}
}

// semiJoinScan is the scan evaluation SemiJoin's adjacency walk replaced:
// it tests every G1 link's δd1 end against the anchors. It stays as the
// reference the walk is checked against.
func semiJoinScan(g1, g2 *graph.Graph, d DirCond) *graph.Graph {
	keep := make(map[graph.LinkID]struct{})
	if g2.NumLinks() == 0 {
		for _, l1 := range g1.Links() {
			if g2.HasNode(l1.End(d.D1)) {
				keep[l1.ID] = struct{}{}
			}
		}
	} else {
		ends := make(map[graph.NodeID]struct{})
		for _, l2 := range g2.Links() {
			ends[l2.End(d.D2)] = struct{}{}
		}
		for _, l1 := range g1.Links() {
			if _, ok := ends[l1.End(d.D1)]; ok {
				keep[l1.ID] = struct{}{}
			}
		}
	}
	return g1.InducedByLinks(keep).ShallowClone()
}

// Property: the adjacency walk keeps exactly the links the scan keeps, for
// all four directional conditions, against a null G2, an induced subgraph
// and an unrelated graph over overlapping ids.
func TestQuickSemiJoinWalkMatchesScan(t *testing.T) {
	dirs := []graph.Direction{graph.Src, graph.Tgt}
	f := func(seed int64) bool {
		g1, sub := randomSite(seed)
		other, _ := randomSite(seed + 1)
		null := graph.New()
		for _, n := range sub.Nodes() {
			null.PutNode(n)
		}
		for _, g2 := range []*graph.Graph{null, sub, other, graph.New()} {
			for _, d1 := range dirs {
				for _, d2 := range dirs {
					d := Delta(d1, d2)
					if !SemiJoin(g1, g2, d).Equal(semiJoinScan(g1, g2, d)) {
						t.Logf("seed %d δ%s: walk and scan disagree", seed, d)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
