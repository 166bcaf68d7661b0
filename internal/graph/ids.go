package graph

import "sync/atomic"

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
func (g *Graph) WithoutDerived(d Derived) *Graph {
	b := g.ShallowClone()
	b.BeginBulk()
	for id := d.LinkLo; id <= d.LinkHi; id++ {
		b.RemoveLink(id)
	}
	for id := d.NodeLo; id <= d.NodeHi; id++ {
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

// Builder constructs site graphs fluently. It panics on structural errors
// (duplicate ids, dangling endpoints), which in construction code are
// programming errors; data-driven loading paths use Graph.AddNode/AddLink
// and handle errors as values.
type Builder struct {
	g   *Graph
	ids *IDSource
}

// NewBuilder returns a builder over a fresh graph. Construction runs in a
// bulk-mutation window (the builder owns the graph until Graph() hands it
// out), so large synthetic corpora and loaders built fluently pay
// transient, not per-write path-copy, allocation costs.
func NewBuilder() *Builder {
	b := &Builder{g: New(), ids: NewIDSource(0, 0)}
	b.g.BeginBulk()
	return b
}

// Node adds a node with a fresh id, the given types, and alternating
// key/value attributes; it returns the id.
func (b *Builder) Node(types []string, kv ...string) NodeID {
	id := b.ids.NextNode()
	n := NewNode(id, types...)
	n.Attrs = NewAttrs(kv...)
	if err := b.g.AddNode(n); err != nil {
		panic(err)
	}
	return id
}

// NodeWithID adds a node with an explicit id.
func (b *Builder) NodeWithID(id NodeID, types []string, kv ...string) NodeID {
	n := NewNode(id, types...)
	n.Attrs = NewAttrs(kv...)
	if err := b.g.AddNode(n); err != nil {
		panic(err)
	}
	if cur := b.ids.node.Load(); int64(id) > cur {
		b.ids.node.Store(int64(id))
	}
	return id
}

// Link adds a link with a fresh id between existing nodes; it returns the id.
// A single key/value attribute is stored as a shared set (see Link).
func (b *Builder) Link(src, tgt NodeID, types []string, kv ...string) LinkID {
	id := b.ids.NextLink()
	l := NewLink(id, src, tgt, types...)
	var a Attrs
	if len(kv) == 2 {
		a = attrSets.get(kv[0], kv[1])
	}
	if a == nil {
		a = NewAttrs(kv...)
	}
	l.Attrs = a
	if err := b.g.AddLink(l); err != nil {
		panic(err)
	}
	return id
}

// Graph returns the built graph, sealing the builder's bulk-mutation
// window first so the result is safe to publish to concurrent readers.
// The builder remains usable; subsequent additions keep mutating the same
// graph through the ordinary persistent per-write path.
func (b *Builder) Graph() *Graph {
	b.g.EndBulk()
	return b.g
}

// Peek returns the graph without sealing the bulk-mutation window. It is
// for mid-construction reads by the builder's owner (looking up a node
// just built, setting attributes on it); the result must not be handed to
// other goroutines — publish through Graph instead, which seals.
func (b *Builder) Peek() *Graph { return b.g }

// IDs returns the builder's id allocator, positioned after everything built
// so far.
func (b *Builder) IDs() *IDSource { return b.ids }
