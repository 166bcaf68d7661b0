package core

import "socialscope/internal/graph"

// NodeSelect implements σN⟨C,S⟩(G) (Definition 1): the null graph — nodes
// only, no links — of the input nodes that satisfy C's structural
// conditions, each with a score attached. When C carries keywords, only
// nodes with a positive score qualify, and the score is computed by s
// (or DefaultScorer when s is nil). Without keywords the score is left
// unset. Selected nodes are cloned, so attaching scores never mutates g.
func NodeSelect(g *graph.Graph, c Condition, s Scorer) *graph.Graph {
	if s == nil {
		s = DefaultScorer
	}
	m := c.matcher()
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	for _, n := range g.Nodes() {
		if !m.node(n) {
			continue
		}
		if len(c.Keywords) > 0 {
			score := s(c.Keywords, n.Text())
			if score <= 0 {
				continue
			}
			cn := n.Clone()
			cn.SetScore(score)
			out.PutNode(cn)
			continue
		}
		out.PutNode(n)
	}
	return out
}

// LinkSelect implements σL⟨C,S⟩(G) (Definition 2): the subgraph of the input
// induced by the links that satisfy C — the qualifying links plus precisely
// their endpoint nodes. Scores attach to links the same way NodeSelect
// attaches them to nodes.
func LinkSelect(g *graph.Graph, c Condition, s Scorer) *graph.Graph {
	if s == nil {
		s = DefaultScorer
	}
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	add := func(l *graph.Link) {
		if !out.HasNode(l.Src) {
			out.PutNode(g.Node(l.Src))
		}
		if !out.HasNode(l.Tgt) {
			out.PutNode(g.Node(l.Tgt))
		}
		// Endpoints were just ensured; the only failure mode is a duplicate
		// id, which the iteration order precludes.
		if err := out.AddLink(l); err != nil {
			panic("core: LinkSelect internal: " + err.Error())
		}
	}
	m := c.matcher()
	for _, l := range g.Links() {
		if !m.link(l) {
			continue
		}
		if len(c.Keywords) > 0 {
			score := s(c.Keywords, l.Text())
			if score <= 0 {
				continue
			}
			cl := l.Clone()
			cl.SetScore(score)
			add(cl)
			continue
		}
		add(l)
	}
	return out
}
