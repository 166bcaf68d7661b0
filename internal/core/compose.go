package core

import (
	"fmt"

	"socialscope/internal/graph"
)

// DirCond is the paper's directional condition δ = (d1, d2): two links
// compose (or semi-join) when the d1 end of the first equals the d2 end of
// the second.
type DirCond struct {
	D1, D2 graph.Direction
}

// Delta builds a directional condition, mirroring the paper's δ=(src,tgt)
// notation.
func Delta(d1, d2 graph.Direction) DirCond { return DirCond{D1: d1, D2: d2} }

func (d DirCond) String() string { return "(" + d.D1.String() + "," + d.D2.String() + ")" }

// ComposeFn is the class CF of composition functions (Section 5.3): it
// receives the two input links plus their host graphs (so it can read node
// attributes as well as link attributes, as the paper requires) and
// produces the type set and uniquely-named attributes of the composed link.
type ComposeFn func(l1, l2 *graph.Link, g1, g2 *graph.Graph) (types []string, attrs graph.Attrs)

// Compose implements G1 ⟨δ,F⟩ G2 (Definition 5). For every pair of links
// l1 ∈ G1, l2 ∈ G2 with l1.δd1 = l2.δd2, it emits a new link from
// u = l1.δd̄1 to v = l2.δd̄2 carrying F(l1, l2). The output graph contains
// exactly the new links and their endpoints; fresh link ids come from ids.
func Compose(g1, g2 *graph.Graph, d DirCond, f ComposeFn, ids *graph.IDSource) (*graph.Graph, error) {
	if f == nil {
		return nil, fmt.Errorf("core: Compose requires a composition function")
	}
	if ids == nil {
		return nil, fmt.Errorf("core: Compose requires an id source")
	}
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	// Index G2 links by their d2 endpoint for a hash join.
	byEnd := make(map[graph.NodeID][]*graph.Link)
	for _, l2 := range g2.Links() {
		end := l2.End(d.D2)
		byEnd[end] = append(byEnd[end], l2)
	}
	for _, l1 := range g1.Links() {
		joinOn := l1.End(d.D1)
		matches := byEnd[joinOn]
		if len(matches) == 0 {
			continue
		}
		u := l1.End(d.D1.Opposite())
		for _, l2 := range matches {
			v := l2.End(d.D2.Opposite())
			types, attrs := f(l1, l2, g1, g2)
			if !out.HasNode(u) {
				out.PutNode(nodeFromEither(u, g1, g2))
			}
			if !out.HasNode(v) {
				out.PutNode(nodeFromEither(v, g2, g1))
			}
			nl := graph.NewLink(ids.NextLink(), u, v, types...)
			if attrs != nil {
				nl.SetAttrs(attrs)
			}
			if err := out.AddLink(nl); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// nodeFromEither fetches the node value from the preferred graph, falling
// back to the other; composition endpoints always exist in at least one
// input because they are link endpoints there.
func nodeFromEither(id graph.NodeID, pref, alt *graph.Graph) *graph.Node {
	if n := pref.Node(id); n != nil {
		return n
	}
	return alt.Node(id)
}

// SemiJoin implements G1 ⋉δ G2 (Definition 6): the subgraph of G1 induced
// by the G1 links whose δd1 end matches the δd2 end of some G2 link.
//
// Special case (used throughout Example 4): when G2 is a null graph — no
// links — the join degenerates to membership of the link's δd1 end in
// nodes(G2). This is how selections "anchor" a traversal on a node set,
// e.g. G ⋉(src,src) σN⟨id=101⟩(G) keeps the links leaving John.
//
// The join walks G1's adjacency from each anchor — a node of G2, or a δd2
// end of a G2 link — instead of scanning G1's links: a G1 link's δd1 end
// is the anchor exactly when the link is in the anchor's out-list (d1=src)
// or in-list (d1=tgt).
func SemiJoin(g1, g2 *graph.Graph, d DirCond) *graph.Graph {
	adj := g1.Out
	if d.D1 == graph.Tgt {
		adj = g1.In
	}
	keep := make(map[graph.LinkID]struct{})
	walk := func(anchor graph.NodeID) {
		for _, l1 := range adj(anchor) {
			keep[l1.ID] = struct{}{}
		}
	}
	if g2.NumLinks() == 0 {
		for _, id := range g2.NodeIDs() {
			walk(id)
		}
	} else {
		ends := make(map[graph.NodeID]struct{})
		for _, l2 := range g2.Links() {
			ends[l2.End(d.D2)] = struct{}{}
		}
		for end := range ends {
			walk(end)
		}
	}
	return g1.InducedByLinks(keep).ShallowClone()
}

// --- Common composition functions ---------------------------------------

// ConstComposer returns a composition function that stamps a fixed type and
// copies the named attributes from the first link onto the composed link.
func ConstComposer(newType string, copyFromL1 ...string) ComposeFn {
	return func(l1, _ *graph.Link, _, _ *graph.Graph) ([]string, graph.Attrs) {
		attrs := graph.Attrs{}
		for _, k := range copyFromL1 {
			if vs := l1.Attrs().All(k); len(vs) > 0 {
				attrs.Set(k, vs...)
			}
		}
		return []string{newType}, attrs
	}
}

// CopyAttrComposer returns Example 5 step 8's F': it copies srcAttr of the
// first link into dstAttr of the composed link and stamps the given type.
func CopyAttrComposer(newType, srcAttr, dstAttr string) ComposeFn {
	return func(l1, _ *graph.Link, _, _ *graph.Graph) ([]string, graph.Attrs) {
		attrs := graph.Attrs{}
		if vs := l1.Attrs().All(srcAttr); len(vs) > 0 {
			attrs.Set(dstAttr, vs...)
		}
		return []string{newType}, attrs
	}
}

// JaccardComposer returns Example 5 step 5's F: it reads the set-valued
// attribute setAttr from the two links' far endpoint nodes (the endpoints
// opposite the join ends) and stores their Jaccard similarity in simAttr of
// the composed link. The composed link's type is newType.
func JaccardComposer(newType, setAttr, simAttr string, d DirCond) ComposeFn {
	return func(l1, l2 *graph.Link, g1, g2 *graph.Graph) ([]string, graph.Attrs) {
		u := nodeFromEither(l1.End(d.D1.Opposite()), g1, g2)
		v := nodeFromEither(l2.End(d.D2.Opposite()), g2, g1)
		attrs := graph.Attrs{}
		attrs.SetFloat(simAttr, jaccardStrings(u.Attrs.All(setAttr), v.Attrs.All(setAttr)))
		return []string{newType}, attrs
	}
}

func jaccardStrings(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	sa := make(map[string]struct{}, len(a))
	for _, v := range a {
		sa[v] = struct{}{}
	}
	inter := 0
	sb := make(map[string]struct{}, len(b))
	for _, v := range b {
		if _, dup := sb[v]; dup {
			continue
		}
		sb[v] = struct{}{}
		if _, ok := sa[v]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
