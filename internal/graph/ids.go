package graph

import (
	"fmt"
	"sync/atomic"

	"socialscope/internal/persist"
)

// IDSource allocates fresh node and link ids within a site's id space.
// Operators that create new elements (composition, link aggregation, pattern
// aggregation) draw from an IDSource seeded past the base graph's maxima so
// derived ids never collide with stored ones. It is safe for concurrent use.
type IDSource struct {
	node atomic.Int64
	link atomic.Int64
}

// NewIDSource returns an allocator that starts after the given maxima.
func NewIDSource(maxNode NodeID, maxLink LinkID) *IDSource {
	s := &IDSource{}
	s.node.Store(int64(maxNode))
	s.link.Store(int64(maxLink))
	return s
}

// IDSourceFor returns an allocator positioned after every id g has ever
// held. It seeds from the graph's O(1) high-water marks — not a scan of
// the present ids — so an id retracted by RemoveNode/RemoveLink is never
// handed out again: reusing it would alias the retracted element in
// incremental index deltas and changelog replays.
func IDSourceFor(g *Graph) *IDSource {
	return NewIDSource(g.MaxNodeID(), g.MaxLinkID())
}

// NextNode returns a fresh node id.
func (s *IDSource) NextNode() NodeID { return NodeID(s.node.Add(1)) }

// NextLink returns a fresh link id.
func (s *IDSource) NextLink() LinkID { return LinkID(s.link.Add(1)) }

// Derived is the node and link id ranges an analysis allocated past a base.
type Derived struct {
	NodeLo, NodeHi NodeID
	LinkLo, LinkHi LinkID
}

// WithoutDerived returns the base d was allocated past: a ShallowClone of g
// without d's ids, each high-water mark at Lo−1 unless g held ids past Hi.
// It walks the shorter of each range and the ids g stores, so a range as
// wide as the id space, which a checkpoint may claim, costs one pass over
// the graph.
func (g *Graph) WithoutDerived(d Derived) *Graph {
	b := g.ShallowClone()
	b.BeginBulk()
	for _, id := range idsIn(g.links, d.LinkLo, d.LinkHi) {
		b.RemoveLink(id)
	}
	for _, id := range idsIn(g.nodes, d.NodeLo, d.NodeHi) {
		b.RemoveNode(id)
	}
	b.EndBulk()
	if b.maxNode == d.NodeHi {
		b.maxNode = d.NodeLo - 1
	}
	if b.maxLink == d.LinkHi {
		b.maxLink = d.LinkLo - 1
	}
	return b
}

// idsIn returns the keys of m in [lo, hi], walking the range when it holds
// fewer ids than m and m otherwise. It never steps past hi, so hi may be
// the largest id there is.
func idsIn[K NodeID | LinkID, V any](m persist.Map[K, V], lo, hi K) []K {
	var ids []K
	switch {
	case hi < lo:
	case uint64(hi-lo) < uint64(m.Len()):
		for id := lo; ; id++ {
			if m.Has(id) {
				ids = append(ids, id)
			}
			if id == hi {
				break
			}
		}
	default:
		m.Range(func(id K, _ V) bool {
			if lo <= id && id <= hi {
				ids = append(ids, id)
			}
			return true
		})
	}
	return ids
}

// Builder constructs site graphs fluently. It panics on structural errors
// (duplicate ids, dangling endpoints), which in construction code are
// programming errors; data-driven loading paths use Graph.AddNode/AddLink
// and handle errors as values.
//
// Until the graph is first asked for (Peek or Graph), the builder only
// buffers what it is given, and the first ask builds every trie in one go
// (persist.Map.Build): a cold corpus pays about three allocations per trie
// node, not several per element. From then on it writes straight through
// to that graph.
type Builder struct {
	g   *Graph // nil until Peek or Graph builds it
	ids *IDSource
	// nodes and links are the elements buffered before g is built, in the
	// order given; has holds the buffered node ids.
	nodes []*Node
	links []*Link
	has   map[NodeID]struct{}
}

// NewBuilder returns a builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{ids: NewIDSource(0, 0), has: make(map[NodeID]struct{})}
}

// addNode adds n, panicking on a duplicate id.
func (b *Builder) addNode(n *Node) {
	if b.g != nil {
		if err := b.g.AddNode(n); err != nil {
			panic(err)
		}
		return
	}
	if _, dup := b.has[n.ID]; dup {
		panic(fmt.Errorf("%w: %d", ErrDuplicateNode, n.ID))
	}
	b.has[n.ID] = struct{}{}
	b.nodes = append(b.nodes, n)
}

// Node adds a node with a fresh id, the given types, and alternating
// key/value attributes; it returns the id.
func (b *Builder) Node(types []string, kv ...string) NodeID {
	id := b.ids.NextNode()
	n := NewNode(id, types...)
	n.Attrs = NewAttrs(kv...)
	b.addNode(n)
	return id
}

// NodeWithID adds a node with an explicit id.
func (b *Builder) NodeWithID(id NodeID, types []string, kv ...string) NodeID {
	n := NewNode(id, types...)
	n.Attrs = NewAttrs(kv...)
	b.addNode(n)
	if cur := b.ids.node.Load(); int64(id) > cur {
		b.ids.node.Store(int64(id))
	}
	return id
}

// Link adds a link with a fresh id between existing nodes; it returns the id.
// The link is stored as Apply stores it, sharing its body or attribute
// set where it can (see Link).
func (b *Builder) Link(src, tgt NodeID, types []string, kv ...string) LinkID {
	id := b.ids.NextLink()
	var a Attrs
	if len(kv) == 2 {
		a = sharedAttrs(Attrs{{Key: kv[0], Vals: kv[1:]}})
	}
	if a == nil {
		a = NewAttrs(kv...)
	}
	l := storedLink(id, src, tgt, types, a, 0, false)
	if b.g != nil {
		if err := b.g.AddLink(l); err != nil {
			panic(err)
		}
		return id
	}
	if _, ok := b.has[src]; !ok {
		panic(fmt.Errorf("%w: src %d of link %d", ErrMissingEnd, src, id))
	}
	if _, ok := b.has[tgt]; !ok {
		panic(fmt.Errorf("%w: tgt %d of link %d", ErrMissingEnd, tgt, id))
	}
	b.links = append(b.links, l)
	return id
}

// Graph returns the built graph, building it on the first ask. The
// result is sealed and safe to publish to concurrent readers. The
// builder remains usable; subsequent additions write to the same graph
// through the ordinary persistent per-write path.
func (b *Builder) Graph() *Graph {
	g := b.Peek()
	g.EndBulk()
	return g
}

// Peek returns the graph, building it on the first ask, without sealing
// it: later additions write to it through a bulk-mutation window. It is
// for mid-construction reads by the builder's owner (looking up a node
// just built, setting attributes on it); the result must not be handed to
// other goroutines — publish through Graph instead, which seals.
func (b *Builder) Peek() *Graph {
	if b.g == nil {
		b.g = New()
		b.g.load(b.nodes, b.links)
		b.g.BeginBulk()
		b.nodes, b.links, b.has = nil, nil, nil
	}
	return b.g
}

// IDs returns the builder's id allocator, positioned after everything built
// so far.
func (b *Builder) IDs() *IDSource { return b.ids }
