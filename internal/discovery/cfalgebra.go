package discovery

import (
	"fmt"
	"sort"
	"strconv"

	"socialscope/internal/core"
	"socialscope/internal/graph"
)

// CollaborativeFilteringAlgebra runs Example 5 for the given user as the
// paper writes it — an algebra program that materialises every
// intermediate graph — and returns the scored recommendations. Both
// variants share steps 1-7 (building the similarity network G4 and the
// activity graph G5) and differ only in how the final recommendation links
// are derived, exactly as Section 5.4 discusses. It is the reproduction of
// Figure 2's stepwise-vs-pattern question and the oracle the item-side
// plan in CollaborativeFiltering is tested against.
func CollaborativeFilteringAlgebra(g *graph.Graph, user graph.NodeID, cfg CFConfig) ([]Recommendation, error) {
	cfg.fill()
	if !g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	ids := graph.IDSourceFor(g)
	act := core.NewCondition(core.Cond("type", graph.SubtypeVisit))
	uid := strconv.FormatInt(int64(user), 10)

	// Steps 1-2: the user and their acted-on items, folded into vst.
	g1 := core.LinkSelect(core.SemiJoin(g, core.NodeSelect(g, core.NewCondition(core.Cond("id", uid)), nil),
		core.Delta(graph.Src, graph.Src)), act, nil)
	g1p, err := core.NodeAggregate(g1, act, graph.Src, "vst", core.CollectEnd(graph.Tgt))
	if err != nil {
		return nil, err
	}
	// Steps 3-4: everyone else.
	g2 := core.LinkSelect(core.SemiJoin(g, core.NodeSelect(g, core.NewCondition(
		core.CondOp("id", core.Ne, uid), core.Cond("type", graph.TypeUser)), nil),
		core.Delta(graph.Src, graph.Src)), act, nil)
	g2p, err := core.NodeAggregate(g2, act, graph.Src, "vst", core.CollectEnd(graph.Tgt))
	if err != nil {
		return nil, err
	}
	// Step 5: Jaccard similarity links.
	delta := core.Delta(graph.Tgt, graph.Tgt)
	g3, err := core.Compose(g1p, g2p, delta, core.JaccardComposer("simpair", "vst", "sim", delta), ids)
	if err != nil {
		return nil, err
	}
	// Step 6: similarity network G4.
	thr := strconv.FormatFloat(cfg.SimThreshold, 'g', -1, 64)
	g4raw, err := core.LinkAggregate(g3, core.NewCondition(core.CondOp("sim", core.Gt, thr)),
		"type", core.ConstAgg("match"), ids, core.WithCarry("sim"))
	if err != nil {
		return nil, err
	}
	g4 := core.LinkSelect(g4raw, core.NewCondition(core.Cond("type", "match")), nil)
	// Step 7: users and their acted-on items G5.
	g5 := core.LinkSelect(core.SemiJoin(g, core.NodeSelect(g, core.NewCondition(
		core.Cond("type", cfg.ItemType)), nil), core.Delta(graph.Tgt, graph.Src)), act, nil)

	var g7 *graph.Graph
	switch cfg.Variant {
	case CFStepwise:
		// Steps 8-9.
		g6, err := core.Compose(core.SemiJoin(g4, g5, core.Delta(graph.Tgt, graph.Src)),
			core.SemiJoin(g5, g4, core.Delta(graph.Src, graph.Tgt)),
			core.Delta(graph.Tgt, graph.Src), core.CopyAttrComposer("rec", "sim", "sim_sc"), ids)
		if err != nil {
			return nil, err
		}
		g7, err = core.LinkAggregate(g6, core.NewCondition(core.Cond("type", "rec")),
			"score", core.Num(core.Average(core.AttrNum("sim_sc"))), ids)
		if err != nil {
			return nil, err
		}
	case CFPattern:
		u45, err := core.Union(g4, g5)
		if err != nil {
			return nil, err
		}
		pattern := core.Pattern{
			Start: core.NewCondition(core.Cond("id", uid)),
			Steps: []core.PatternStep{
				{Link: core.NewCondition(core.Cond("type", "match"))},
				{Link: core.NewCondition(core.Cond("type", graph.SubtypeVisit)),
					Node: core.NewCondition(core.Cond("type", cfg.ItemType))},
			},
		}
		g7, err = core.PatternAggregate(u45, pattern, "score", core.AvgPathAttr(0, "sim"), ids)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("discovery: unknown CF variant %d", cfg.Variant)
	}

	// The similarity network members are the provenance basis.
	var basis []graph.NodeID
	for _, l := range g4.Links() {
		if l.Src == user {
			basis = append(basis, l.Tgt)
		}
	}
	sort.Slice(basis, func(i, j int) bool { return basis[i] < basis[j] })

	var recs []Recommendation
	for _, l := range g7.Links() {
		if l.Src != user {
			continue
		}
		score, ok := l.Attrs().Float("score")
		if !ok || score <= 0 {
			continue
		}
		recs = append(recs, Recommendation{
			Item: l.Tgt, Score: score, Basis: basis, Strategy: "cf-" + cfg.Variant.String(),
		})
	}
	sortRecs(recs)
	return recs, nil
}
