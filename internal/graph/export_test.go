package graph

import "socialscope/internal/persist"

// TrieOrders returns the keys of g's node, link, out and in tries in Range
// order, which is fixed by each trie's shape.
func TrieOrders(g *Graph) (nodes []NodeID, links []LinkID, out, in []NodeID) {
	return g.nodes.Keys(), g.links.Keys(), g.out.Keys(), g.in.Keys()
}

// SpareSlots returns the slots g's four tries and its adjacency lists
// hold beyond their length.
func SpareSlots(g *Graph) int {
	n := g.nodes.SpareSlots() + g.links.SpareSlots() + g.out.SpareSlots() + g.in.SpareSlots()
	for _, adj := range []persist.Map[NodeID, []*Link]{g.out, g.in} {
		adj.Range(func(_ NodeID, ls []*Link) bool {
			n += cap(ls) - len(ls)
			return true
		})
	}
	return n
}
