package analyzer

import (
	"socialscope/internal/graph"
	"socialscope/internal/persist"
)

// DeriveMatches adds derived 'match' links between every pair of users
// whose item sets have Jaccard similarity ≥ threshold — the off-line
// analysis that seeds the similarity network Examples 2 and 5 consult. A
// user's items are the targets of its act links (Graph.Acts). The input
// graph is not mutated; the returned graph shares its storage
// copy-on-write and carries one directed match link per ordered pair
// (u,v), u ≠ v, with the similarity stored in 'sim'.
func DeriveMatches(g *graph.Graph, threshold float64) *graph.Graph {
	users := g.NodesOfType(graph.TypeUser) // ascending ids
	out := g.ShallowClone()
	out.BeginBulk() // out is private until returned; sealed below
	ids := graph.IDSourceFor(out)
	for i, u := range users {
		for _, v := range users[i+1:] {
			sim := persist.Jaccard(g.Acts(u.ID), g.Acts(v.ID))
			if sim < threshold || sim == 0 {
				continue
			}
			for _, pair := range [][2]graph.NodeID{{u.ID, v.ID}, {v.ID, u.ID}} {
				ml := graph.NewLink(ids.NextLink(), pair[0], pair[1], graph.TypeMatch)
				ml.SetAttrFloat("sim", sim)
				if err := out.AddLink(ml); err != nil {
					// Both endpoints exist in the clone; AddLink can only
					// fail on a duplicate id, which NextLink precludes.
					panic("analyzer: DeriveMatches internal: " + err.Error())
				}
			}
		}
	}
	out.EndBulk()
	return out
}
