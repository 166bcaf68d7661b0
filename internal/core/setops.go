package core

import "socialscope/internal/graph"

// Union implements G1 ∪ G2 (Definition 3): the node and link unions, with
// nodes and links sharing an id consolidated (types, attributes and scores
// merged). Inputs must originate from the same site id space; a link id
// present in both graphs with different endpoints indicates corrupted
// inputs and is reported as an error.
func Union(g1, g2 *graph.Graph) (*graph.Graph, error) {
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	for _, n := range g1.Nodes() {
		out.PutNode(n.Clone())
	}
	for _, n := range g2.Nodes() {
		out.PutNode(n.Clone())
	}
	for _, l := range g1.Links() {
		if err := out.PutLink(l.Clone()); err != nil {
			return nil, err
		}
	}
	for _, l := range g2.Links() {
		if err := out.PutLink(l.Clone()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Intersect implements G1 ∩ G2 (Definition 3): nodes present in both (by
// id, consolidated) and links present in both. Every surviving link's
// endpoints necessarily survive, because each input graph is well formed.
func Intersect(g1, g2 *graph.Graph) (*graph.Graph, error) {
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	for _, n := range g1.Nodes() {
		if other := g2.Node(n.ID); other != nil {
			merged := n.Clone()
			merged.Merge(other)
			out.PutNode(merged)
		}
	}
	for _, l := range g1.Links() {
		other := g2.Link(l.ID)
		if other == nil {
			continue
		}
		if other.Src != l.Src || other.Tgt != l.Tgt {
			return nil, graph.ErrEndpointChange
		}
		merged := l.Clone()
		merged.Merge(other)
		if err := out.PutLink(merged); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Minus implements the node-driven minus G1 \ G2 (Definition 3 with the
// Remarks' reading): the subgraph of G1 induced by the nodes of G1 that are
// not present in G2. All surviving links have both endpoints outside G2 and
// are therefore automatically absent from G2.
func Minus(g1, g2 *graph.Graph) *graph.Graph {
	keep := make(map[graph.NodeID]struct{})
	for _, n := range g1.Nodes() {
		if !g2.HasNode(n.ID) {
			keep[n.ID] = struct{}{}
		}
	}
	return g1.InducedByNodes(keep).ShallowClone()
}

// LinkMinus implements the link-driven minus G1 \· G2 (Definition 4):
// links(G1) minus links(G2) by id, with nodes precisely those induced by
// the surviving links. In the paper's example, for G1 = {(a,b),(a,c),(b,c)}
// and G2 = {(a,b)}, LinkMinus keeps all three nodes and links (a,c),(b,c),
// whereas Minus keeps only node c.
func LinkMinus(g1, g2 *graph.Graph) *graph.Graph {
	keep := make(map[graph.LinkID]struct{})
	for _, l := range g1.Links() {
		if !g2.HasLink(l.ID) {
			keep[l.ID] = struct{}{}
		}
	}
	return g1.InducedByLinks(keep).ShallowClone()
}

// LinkMinusViaLemma1 computes G1 \· G2 using only \, σN and ⋉, following
// Lemma 1. Writing N = σN⟨∅⟩(G1 \ G2) for the null graph of G1-only nodes:
//
//	G1 \· G2  =  (G1 ⋉(src,src) N) ∪ (G1 ⋉(tgt,src) N)
//
// The identity holds whenever G2 is link-closed with respect to G1: every
// G1 link whose endpoints both appear in G2 is itself in G2. That is the
// situation the paper's operators produce (G2 a selection or induced
// subgraph of the same base); the package tests document a counterexample
// when the precondition fails. The paper omits the lemma's construction —
// this is the reconstruction our rewriter uses.
func LinkMinusViaLemma1(g1, g2 *graph.Graph) (*graph.Graph, error) {
	n := NodeSelect(Minus(g1, g2), Condition{}, nil)
	left := SemiJoin(g1, n, Delta(graph.Src, graph.Src))
	right := SemiJoin(g1, n, Delta(graph.Tgt, graph.Src))
	return Union(left, right)
}

// LinkClosed reports whether g2 is link-closed with respect to g1: every g1
// link with both endpoints present in g2 is itself present in g2. This is
// the precondition under which LinkMinusViaLemma1 agrees with LinkMinus.
func LinkClosed(g1, g2 *graph.Graph) bool {
	for _, l := range g1.Links() {
		if g2.HasNode(l.Src) && g2.HasNode(l.Tgt) && !g2.HasLink(l.ID) {
			return false
		}
	}
	return true
}
