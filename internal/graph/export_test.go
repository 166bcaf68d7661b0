package graph

// TrieOrders returns the keys of g's node, link, out and in tries in Range
// order, which is fixed by each trie's shape.
func TrieOrders(g *Graph) (nodes []NodeID, links []LinkID, out, in []NodeID) {
	return g.nodes.Keys(), g.links.Keys(), g.out.Keys(), g.in.Keys()
}
