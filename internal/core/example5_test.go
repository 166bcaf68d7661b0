package core

import (
	"math"
	"testing"

	"socialscope/internal/graph"
)

// cfFixture builds the collaborative-filtering scenario for Example 5:
//
//	John(1)  visits a(10), b(11)
//	Ann(2)   visits a, b, c(12)   → Jaccard(John,Ann) = 2/3 > 0.5
//	Bob(3)   visits a, d(13), e(14) → 1/4 ≤ 0.5
//	Eve(4)   visits b, c          → 1/3 ≤ 0.5
//
// Only Ann lands in John's similarity network, so CF recommends Ann's
// destinations with score 2/3.
func cfFixture(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	addN := func(id graph.NodeID, types ...string) {
		if err := g.AddNode(graph.NewNode(id, types...)); err != nil {
			t.Fatal(err)
		}
	}
	addL := func(id graph.LinkID, src, tgt graph.NodeID) {
		if err := g.AddLink(graph.NewLink(id, src, tgt, graph.TypeAct, graph.SubtypeVisit)); err != nil {
			t.Fatal(err)
		}
	}
	for id := graph.NodeID(1); id <= 4; id++ {
		addN(id, graph.TypeUser)
	}
	for id := graph.NodeID(10); id <= 14; id++ {
		addN(id, graph.TypeItem, "destination")
	}
	addL(101, 1, 10)
	addL(102, 1, 11)
	addL(103, 2, 10)
	addL(104, 2, 11)
	addL(105, 2, 12)
	addL(106, 3, 10)
	addL(107, 3, 13)
	addL(108, 3, 14)
	addL(109, 4, 11)
	addL(110, 4, 12)
	return g
}

// runExample5Steps executes the nine steps of Example 5 and returns the
// final recommendation graph G7 (John→destination links with a score
// attribute).
func runExample5Steps(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	ids := graph.IDSourceFor(g)
	visit := NewCondition(Cond("type", graph.SubtypeVisit))

	// Step 1: John and the places he has visited.
	g1 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(Cond("id", "1")), nil),
		Delta(graph.Src, graph.Src)), visit, nil)

	// Step 2: vst = set of John's destinations, as a node attribute.
	g1p, err := NodeAggregate(g1, visit, graph.Src, "vst", CollectEnd(graph.Tgt))
	if err != nil {
		t.Fatal(err)
	}

	// Step 3: other users and their visits.
	g2 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(CondOp("id", Ne, "1"),
		Cond("type", graph.TypeUser)), nil), Delta(graph.Src, graph.Src)), visit, nil)

	// Step 4: vst per other user.
	g2p, err := NodeAggregate(g2, visit, graph.Src, "vst", CollectEnd(graph.Tgt))
	if err != nil {
		t.Fatal(err)
	}

	// Step 5: compose on shared destinations; F computes Jaccard of the
	// two users' vst sets into sim. One John→user link per common place.
	delta := Delta(graph.Tgt, graph.Tgt)
	g3, err := Compose(g1p, g2p, delta, JaccardComposer("simpair", "vst", "sim", delta), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Step 6: collapse link groups with sim>0.5 into one 'match' link,
	// retaining sim; then keep only the match links (the paper's G4 is
	// described as John's similarity network).
	g4raw, err := LinkAggregate(g3, NewCondition(CondOp("sim", Gt, "0.5")),
		"type", ConstAgg("match"), ids, WithCarry("sim"))
	if err != nil {
		t.Fatal(err)
	}
	g4 := LinkSelect(g4raw, NewCondition(Cond("type", "match")), nil)

	// Step 7: users and the destinations they have visited.
	g5 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(Cond("type", "destination")), nil),
		Delta(graph.Tgt, graph.Src)), visit, nil)

	// Step 8: compose similarity network with visits; F' copies sim into
	// sim_sc on the new John→destination links.
	g6, err := Compose(SemiJoin(g4, g5, Delta(graph.Tgt, graph.Src)),
		SemiJoin(g5, g4, Delta(graph.Src, graph.Tgt)),
		Delta(graph.Tgt, graph.Src), CopyAttrComposer("rec", "sim", "sim_sc"), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Step 9: one link per destination; score = average sim_sc.
	g7, err := LinkAggregate(g6, NewCondition(Cond("type", "rec")),
		"score", Num(Average(AttrNum("sim_sc"))), ids)
	if err != nil {
		t.Fatal(err)
	}
	return g7
}

func TestExample5CollaborativeFiltering(t *testing.T) {
	g := cfFixture(t)
	g7 := runExample5Steps(t, g)

	// Recommendations: Ann's destinations {10,11,12}, score 2/3 each.
	if g7.NumLinks() != 3 {
		t.Fatalf("recommendation links = %v", g7.LinkIDs())
	}
	seen := map[graph.NodeID]bool{}
	for _, l := range g7.Links() {
		if l.Src != 1 {
			t.Errorf("recommendation source = %d, want John", l.Src)
		}
		seen[l.Tgt] = true
		score, ok := l.Attrs().Float("score")
		if !ok || math.Abs(score-2.0/3.0) > 1e-9 {
			t.Errorf("score to %d = %v, want 2/3", l.Tgt, l.Attrs().Get("score"))
		}
	}
	for _, d := range []graph.NodeID{10, 11, 12} {
		if !seen[d] {
			t.Errorf("destination %d not recommended", d)
		}
	}
	// Bob's and Eve's exclusive places must not be recommended.
	if seen[13] || seen[14] {
		t.Error("dissimilar users' destinations leaked into recommendations")
	}
}

// TestExample5PatternEquivalence verifies the paper's claim at the end of
// Section 5.4: the multi-step composition+aggregation (steps 8-9) and the
// single graph-pattern aggregation over G4 ∪ G5 produce the same
// recommendations.
func TestExample5PatternEquivalence(t *testing.T) {
	g := cfFixture(t)
	ids := graph.IDSourceFor(g)
	visit := NewCondition(Cond("type", graph.SubtypeVisit))

	// Rebuild G4 and G5 (steps 1-7) — shared prefix of both variants.
	g1 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(Cond("id", "1")), nil),
		Delta(graph.Src, graph.Src)), visit, nil)
	g1p, err := NodeAggregate(g1, visit, graph.Src, "vst", CollectEnd(graph.Tgt))
	if err != nil {
		t.Fatal(err)
	}
	g2 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(CondOp("id", Ne, "1"),
		Cond("type", graph.TypeUser)), nil), Delta(graph.Src, graph.Src)), visit, nil)
	g2p, err := NodeAggregate(g2, visit, graph.Src, "vst", CollectEnd(graph.Tgt))
	if err != nil {
		t.Fatal(err)
	}
	delta := Delta(graph.Tgt, graph.Tgt)
	g3, err := Compose(g1p, g2p, delta, JaccardComposer("simpair", "vst", "sim", delta), ids)
	if err != nil {
		t.Fatal(err)
	}
	g4raw, err := LinkAggregate(g3, NewCondition(CondOp("sim", Gt, "0.5")),
		"type", ConstAgg("match"), ids, WithCarry("sim"))
	if err != nil {
		t.Fatal(err)
	}
	g4 := LinkSelect(g4raw, NewCondition(Cond("type", "match")), nil)
	g5 := LinkSelect(SemiJoin(g, NodeSelect(g, NewCondition(Cond("type", "destination")), nil),
		Delta(graph.Tgt, graph.Src)), visit, nil)

	// Variant A: steps 8-9.
	g6, err := Compose(SemiJoin(g4, g5, Delta(graph.Tgt, graph.Src)),
		SemiJoin(g5, g4, Delta(graph.Src, graph.Tgt)),
		Delta(graph.Tgt, graph.Src), CopyAttrComposer("rec", "sim", "sim_sc"), ids)
	if err != nil {
		t.Fatal(err)
	}
	stepwise, err := LinkAggregate(g6, NewCondition(Cond("type", "rec")),
		"score", Num(Average(AttrNum("sim_sc"))), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Variant B: γL⟨GP,score,avg⟩(G4 ∪ G5) with the Figure 2 pattern.
	u45, err := Union(g4, g5)
	if err != nil {
		t.Fatal(err)
	}
	pattern := Pattern{
		Start: NewCondition(Cond("id", "1")),
		Steps: []PatternStep{
			{Link: NewCondition(Cond("type", "match"))},
			{Link: NewCondition(Cond("type", graph.SubtypeVisit)),
				Node: NewCondition(Cond("type", "destination"))},
		},
	}
	patterned, err := PatternAggregate(u45, pattern, "score", AvgPathAttr(0, "sim"), ids)
	if err != nil {
		t.Fatal(err)
	}

	// Same (src, tgt, score) triples.
	type rec struct {
		src, tgt graph.NodeID
	}
	collect := func(g *graph.Graph) map[rec]float64 {
		out := make(map[rec]float64)
		for _, l := range g.Links() {
			s, _ := l.Attrs().Float("score")
			out[rec{l.Src, l.Tgt}] = s
		}
		return out
	}
	a, b := collect(stepwise), collect(patterned)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("recommendation counts differ: stepwise=%d pattern=%d", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Errorf("pattern variant missing recommendation %v", k)
			continue
		}
		if math.Abs(va-vb) > 1e-9 {
			t.Errorf("score mismatch for %v: stepwise=%f pattern=%f", k, va, vb)
		}
	}
}
