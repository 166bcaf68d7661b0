package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"socialscope/internal/persist"
)

// Common errors returned by graph mutation methods.
var (
	ErrDuplicateNode  = errors.New("graph: node id already present")
	ErrDuplicateLink  = errors.New("graph: link id already present")
	ErrMissingNode    = errors.New("graph: node id not present")
	ErrMissingEnd     = errors.New("graph: link endpoint not present")
	ErrNilElement     = errors.New("graph: nil node or link")
	ErrEndpointChange = errors.New("graph: consolidated link has different endpoints")
)

// Graph is an instance of a social content site: a set of id-addressed nodes
// and links with adjacency indexes. A Graph may be a "null graph" in the
// paper's sense — nodes with no links — which node selection produces.
//
// Storage is persistent (structurally shared): the node, link and adjacency
// maps are copy-on-write tries, and adjacency lists are slices of the stored
// *Link values ordered by ascending link id, never written below their
// length once stored. Every write operation rebinds the Graph's own map
// headers and never modifies a trie node or slice element another Graph can
// reach, which makes ShallowClone an O(1) snapshot: a clone and its origin
// share all storage, and either side can keep mutating without the other
// observing a thing — the RCU discipline the live engine's Apply/Search
// concurrency is built on.
//
// Graphs are not safe for concurrent mutation; concurrent reads — including
// reads of an earlier ShallowClone while a successor mutates — are safe.
type Graph struct {
	nodes persist.Map[NodeID, *Node]
	links persist.Map[LinkID, *Link]
	// out and in are the adjacency indexes: per node, the very *Link values
	// links stores whose source (target) it is, in ascending id order — so
	// Out/In are one trie probe with no per-link lookup. PutLink swaps a
	// consolidated link into both endpoint slices.
	out persist.Map[NodeID, []*Link]
	in  persist.Map[NodeID, []*Link]
	// maxNode and maxLink are monotonic high-water marks over every id the
	// graph has ever held. They survive clones and removals, so IDSource
	// allocation never reuses a retracted id (which would alias unrelated
	// elements in incremental index deltas and changelog replays).
	maxNode NodeID
	maxLink LinkID
	// recorder, when set via SetRecorder, observes every successful write
	// operation as a Mutation. Clones (Clone, ShallowClone, induced
	// subgraphs) start with no recorder.
	recorder func(Mutation)
	// bulk, when non-nil, is the ownership token of an open bulk-mutation
	// window (BeginBulk): map writes route through the persist transient
	// path, mutating trie nodes this window created in place instead of
	// path-copying per write. Snapshot safety is preserved — nodes shared
	// with any earlier snapshot are copied on first touch — and taking a
	// snapshot (ShallowClone, Clone) seals the window first.
	bulk *persist.Edit
	// ownOut and ownIn are the ownership rule of adjacency slices in an
	// open bulk window: the nodes whose out (in) slice was allocated inside
	// it. No snapshot has seen such a slice — taking one seals the window —
	// and nothing else shares its backing array, so a link that goes last
	// is appended in place, filling spare capacity beyond every length
	// handed out so far. Dropped by EndBulk.
	ownOut, ownIn map[NodeID]struct{}
	// view is the snapshot's act-link neighbourhood view (see Acts), nil
	// until a reader builds it. ShallowClone carries it over, ApplyAll
	// patches it, and every other write drops it.
	view atomic.Pointer[neighbourhood]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: persist.NewIntMap[NodeID, *Node](),
		links: persist.NewIntMap[LinkID, *Link](),
		out:   persist.NewIntMap[NodeID, []*Link](),
		in:    persist.NewIntMap[NodeID, []*Link](),
	}
}

// BeginBulk opens a bulk-mutation window: until the window closes, write
// operations may mutate freshly created trie nodes in place (persist
// transients) instead of copy-on-writing one path per write, cutting the
// allocation cost of a batch of writes by an order of magnitude: every
// ApplyAll batch runs in one, and so do graph.Decode and the algebra's
// operators. Builds from a known element set (the Builder, Clone,
// induced subgraphs, checkpoint loads) skip the writes altogether and lay
// each trie out in one go (persist.Map.Build).
//
// Correctness is unchanged: storage shared with any Graph that existed
// before the window opened is still copied before the first write, so
// earlier snapshots never observe a thing. The graph itself remains
// readable mid-window. The contract is the transient one: a bulk window
// is single-goroutine, and the graph must not be shared with concurrent
// readers until the window closes (EndBulk, or implicitly by taking a
// ShallowClone/Clone snapshot, which seals first). Idempotent: an
// already-open window is kept.
func (g *Graph) BeginBulk() {
	if g.bulk == nil {
		g.bulk = persist.NewEdit()
		g.ownOut, g.ownIn = make(map[NodeID]struct{}), make(map[NodeID]struct{})
	}
}

// EndBulk closes the bulk-mutation window. After it returns no write can
// mutate previously written storage in place, so the graph may be
// published to concurrent readers under the usual snapshot discipline.
//
// On a graph with no open window this is a pure read (no field write):
// concurrent readers may freely take snapshots of a published — hence
// sealed — graph, where an unconditional nil-store would be a data race.
// An open window already requires single-goroutine ownership, so the
// closing store is race-free by contract.
func (g *Graph) EndBulk() {
	if g.bulk != nil {
		g.bulk = nil
		g.ownOut, g.ownIn = nil, nil
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.nodes.Len() }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return g.links.Len() }

// Node returns the node with the given id, or nil. The pointer is the
// node stored in the published snapshot, not a copy.
//
//ss:immutable — Clone before mutating.
func (g *Graph) Node(id NodeID) *Node { return g.nodes.At(id) }

// Link returns the link with the given id, or nil. The pointer is the
// link stored in the published snapshot, not a copy.
//
//ss:immutable — Clone before mutating.
func (g *Graph) Link(id LinkID) *Link { return g.links.At(id) }

// HasNode reports whether the node id is present.
func (g *Graph) HasNode(id NodeID) bool { return g.nodes.Has(id) }

// HasLink reports whether the link id is present.
func (g *Graph) HasLink(id LinkID) bool { return g.links.Has(id) }

// noteNodeID and noteLinkID advance the high-water marks.
func (g *Graph) noteNodeID(id NodeID) {
	if id > g.maxNode {
		g.maxNode = id
	}
}

func (g *Graph) noteLinkID(id LinkID) {
	if id > g.maxLink {
		g.maxLink = id
	}
}

// AddNode inserts a node. It fails on nil input or duplicate id.
func (g *Graph) AddNode(n *Node) error {
	if n == nil {
		return ErrNilElement
	}
	if g.nodes.Has(n.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicateNode, n.ID)
	}
	g.dropView()
	g.nodes = g.nodes.SetWith(g.bulk, n.ID, n)
	g.noteNodeID(n.ID)
	g.emitNode(MutAddNode, n)
	return nil
}

// PutNode inserts the node, consolidating (merging) with any existing node
// of the same id. This is the consolidation rule of Definition 3. The
// resident node value is never modified: the merge happens on a clone
// that is swapped in, so snapshots sharing the old value keep it intact.
func (g *Graph) PutNode(n *Node) {
	if n == nil {
		return
	}
	g.dropView()
	if ex, ok := g.nodes.Get(n.ID); ok {
		merged := ex.Clone()
		merged.Merge(n)
		g.nodes = g.nodes.SetWith(g.bulk, n.ID, merged)
		g.emitNode(MutPutNode, merged)
		return
	}
	g.nodes = g.nodes.SetWith(g.bulk, n.ID, n)
	g.noteNodeID(n.ID)
	g.emitNode(MutAddNode, n)
}

// AddLink inserts a link. Both endpoints must already be present; this keeps
// every Graph a well-formed subgraph (links induce their endpoints).
func (g *Graph) AddLink(l *Link) error {
	if l == nil {
		return ErrNilElement
	}
	if g.links.Has(l.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicateLink, l.ID)
	}
	if !g.HasNode(l.Src) {
		return fmt.Errorf("%w: src %d of link %d", ErrMissingEnd, l.Src, l.ID)
	}
	if !g.HasNode(l.Tgt) {
		return fmt.Errorf("%w: tgt %d of link %d", ErrMissingEnd, l.Tgt, l.ID)
	}
	g.dropView()
	g.links = g.links.SetWith(g.bulk, l.ID, l)
	g.out = g.out.SetWith(g.bulk, l.Src, g.insertLink(g.ownOut, l.Src, g.out.At(l.Src), l))
	g.in = g.in.SetWith(g.bulk, l.Tgt, g.insertLink(g.ownIn, l.Tgt, g.in.At(l.Tgt), l))
	g.noteLinkID(l.ID)
	g.emitLink(MutAddLink, l)
	return nil
}

// PutLink inserts the link, consolidating with any existing link of the same
// id. Consolidation with different endpoints is an error. Missing endpoint
// nodes are an error, as with AddLink. Like PutNode, the resident link
// value is never modified — the merge is clone-and-swap, and the merged
// link replaces the resident one in copies of both endpoint slices — so
// snapshots keep their view.
func (g *Graph) PutLink(l *Link) error {
	if l == nil {
		return ErrNilElement
	}
	if ex, ok := g.links.Get(l.ID); ok {
		if ex.Src != l.Src || ex.Tgt != l.Tgt {
			return fmt.Errorf("%w: link %d", ErrEndpointChange, l.ID)
		}
		g.dropView()
		merged := ex.Clone()
		merged.Merge(l)
		merged = merged.stored()
		g.links = g.links.SetWith(g.bulk, l.ID, merged)
		g.out = g.out.SetWith(g.bulk, l.Src, replaceLink(g.out.At(l.Src), merged))
		g.in = g.in.SetWith(g.bulk, l.Tgt, replaceLink(g.in.At(l.Tgt), merged))
		if g.recorder != nil {
			g.recorder(Mutation{Kind: MutPutLink, Link: merged.Clone(), Prev: ex.Clone()})
		}
		return nil
	}
	return g.AddLink(l)
}

// RemoveLink deletes a link (no-op when absent). Endpoint nodes remain.
// The high-water id marks do not retreat: the retracted id stays burned.
func (g *Graph) RemoveLink(id LinkID) {
	l, ok := g.links.Get(id)
	if !ok {
		return
	}
	g.dropView()
	g.links = g.links.DeleteWith(g.bulk, id)
	g.setAdjacency(&g.out, l.Src, removeLink(g.out.At(l.Src), id))
	g.setAdjacency(&g.in, l.Tgt, removeLink(g.in.At(l.Tgt), id))
	g.emitLink(MutRemoveLink, l)
}

// setAdjacency rebinds one adjacency entry, dropping the key once its list
// drains so empty slices never accumulate.
func (g *Graph) setAdjacency(m *persist.Map[NodeID, []*Link], id NodeID, ls []*Link) {
	if len(ls) == 0 {
		*m = m.DeleteWith(g.bulk, id)
		return
	}
	*m = m.SetWith(g.bulk, id, ls)
}

// searchLink returns the position of link id in ls (sorted by ascending
// id), or where it would be inserted.
func searchLink(ls []*Link, id LinkID) int {
	return sort.Search(len(ls), func(i int) bool { return ls[i].ID >= id })
}

// insertLink returns ls, the adjacency slice of node id under the ownership
// set own, with l inserted in id order; l's id is not in ls. A slice the
// open bulk window owns grows in place when l goes last — the
// ascending-id case of a load, amortised O(1). Otherwise the result is a
// fresh copy, which the window (if one is open) then owns.
func (g *Graph) insertLink(own map[NodeID]struct{}, id NodeID, ls []*Link, l *Link) []*Link {
	n := len(ls)
	i := n
	if n > 0 && ls[n-1].ID > l.ID {
		i = searchLink(ls, l.ID)
	}
	if g.bulk != nil {
		if _, owned := own[id]; owned && i == n {
			return append(ls, l)
		}
		own[id] = struct{}{}
	}
	s := make([]*Link, n+1)
	copy(s, ls[:i])
	s[i] = l
	copy(s[i+1:], ls[i:])
	return s
}

// replaceLink returns a copy of ls with l in place of the link of the same
// id.
func replaceLink(ls []*Link, l *Link) []*Link {
	s := slices.Clone(ls)
	s[searchLink(s, l.ID)] = l
	return s
}

// removeLink returns a fresh copy of ls without link id, or ls itself when
// the id is absent. Never in place: a bulk window's owned slice may have
// been handed out at its current length.
func removeLink(ls []*Link, id LinkID) []*Link {
	i := searchLink(ls, id)
	if i == len(ls) || ls[i].ID != id {
		return ls
	}
	return slices.Concat(ls[:i], ls[i+1:])
}

// RemoveNode deletes a node and every link incident on it.
func (g *Graph) RemoveNode(id NodeID) {
	n, ok := g.nodes.Get(id)
	if !ok {
		return
	}
	g.dropView()
	// RemoveLink never writes a stored slice in place, so these stay the
	// node's adjacency as of now while the removals rebind the maps.
	outs, ins := g.out.At(id), g.in.At(id)
	for _, l := range outs {
		g.RemoveLink(l.ID)
	}
	for _, l := range ins {
		g.RemoveLink(l.ID)
	}
	g.nodes = g.nodes.DeleteWith(g.bulk, id)
	g.out = g.out.DeleteWith(g.bulk, id)
	g.in = g.in.DeleteWith(g.bulk, id)
	g.emitNode(MutRemoveNode, n)
}

// NodeIDs returns all node ids in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	ids := g.nodes.Keys()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// LinkIDs returns all link ids in ascending order.
func (g *Graph) LinkIDs() []LinkID {
	ids := g.links.Keys()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Nodes returns all nodes ordered by ascending id. The slice is fresh
// but the elements are the snapshot's own nodes.
//
//ss:immutable — Clone elements before mutating them.
func (g *Graph) Nodes() []*Node {
	ns := make([]*Node, 0, g.nodes.Len())
	g.nodes.Range(func(_ NodeID, n *Node) bool {
		ns = append(ns, n)
		return true
	})
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	return ns
}

// Links returns all links ordered by ascending id. The slice is fresh
// but the elements are the snapshot's own links.
//
//ss:immutable — Clone elements before mutating them.
func (g *Graph) Links() []*Link {
	ls := make([]*Link, 0, g.links.Len())
	g.links.Range(func(_ LinkID, l *Link) bool {
		ls = append(ls, l)
		return true
	})
	sort.Slice(ls, func(i, j int) bool { return ls[i].ID < ls[j].ID })
	return ls
}

// Out returns the links whose source is the given node, ordered by id: one
// trie probe, no allocation. The slice itself is the snapshot's adjacency
// list, capped at its length so append always copies; neither it nor its
// elements may be written.
//
//ss:immutable — Clone elements before mutating them; never write the slice.
func (g *Graph) Out(id NodeID) []*Link {
	ls := g.out.At(id)
	return ls[:len(ls):len(ls)]
}

// In returns the links whose target is the given node, ordered by id, with
// Out's aliasing contract: the slice is the snapshot's, append copies.
//
//ss:immutable — Clone elements before mutating them; never write the slice.
func (g *Graph) In(id NodeID) []*Link {
	ls := g.in.At(id)
	return ls[:len(ls):len(ls)]
}

// Incident returns all links touching the node (out then in), ordered by id
// within each direction. The elements alias the published snapshot, and
// so does the slice when the node has no in-links.
//
//ss:immutable — Clone elements before mutating them; never write the slice.
func (g *Graph) Incident(id NodeID) []*Link {
	return append(g.Out(id), g.In(id)...)
}

// OutDegree returns the number of outgoing links of the node.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out.At(id)) }

// InDegree returns the number of incoming links of the node.
func (g *Graph) InDegree(id NodeID) int { return len(g.in.At(id)) }

// Neighbors returns the distinct node ids adjacent to the node (either
// direction), in ascending order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]struct{})
	for _, l := range g.out.At(id) {
		seen[l.Tgt] = struct{}{}
	}
	for _, l := range g.in.At(id) {
		seen[l.Src] = struct{}{}
	}
	delete(seen, id)
	ids := make([]NodeID, 0, len(seen))
	for nid := range seen {
		ids = append(ids, nid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Clone returns a deep copy of the graph: node and link values are cloned,
// and the adjacency indexes are rebuilt over the cloned links — they hold
// link pointers, so sharing them would hand the origin's links to anyone
// mutating the clone's. Each trie is built in one go (load).
func (g *Graph) Clone() *Graph {
	c := g.ShallowClone()
	ns := make([]*Node, 0, g.nodes.Len())
	g.nodes.Range(func(_ NodeID, n *Node) bool {
		ns = append(ns, n.Clone())
		return true
	})
	ls := make([]*Link, 0, g.links.Len())
	g.links.Range(func(_ LinkID, l *Link) bool {
		ls = append(ls, l.Clone())
		return true
	})
	c.nodes, c.links = persist.NewIntMap[NodeID, *Node](), persist.NewIntMap[LinkID, *Link]()
	c.load(ns, ls)
	return c
}

// ShallowClone returns a snapshot of the graph that shares all storage —
// node and link values, and the persistent maps holding them — with the
// original. O(1): it copies only the Graph header. Either side may keep
// mutating; copy-on-write guarantees the other never observes it.
// Operators that only filter (and never mutate elements) use it to avoid
// deep copies, and Engine.Apply builds its per-batch snapshots on it.
//
// Taking a snapshot seals any open bulk window on the receiver first:
// once two Graphs share storage, neither may mutate it in place.
func (g *Graph) ShallowClone() *Graph {
	g.EndBulk()
	c := &Graph{
		nodes:   g.nodes,
		links:   g.links,
		out:     g.out,
		in:      g.in,
		maxNode: g.maxNode,
		maxLink: g.maxLink,
	}
	if v := g.view.Load(); v != nil {
		c.view.Store(v)
	}
	return c
}

// InducedByNodes returns the subgraph of g induced by the given node set:
// those nodes plus every link whose both endpoints are in the set. Node and
// link values are shared with g (callers clone before mutating).
func (g *Graph) InducedByNodes(ids map[NodeID]struct{}) *Graph {
	var ns []*Node
	for id := range ids {
		if n, ok := g.nodes.Get(id); ok {
			ns = append(ns, n)
		}
	}
	var kept []*Link
	g.links.Range(func(_ LinkID, l *Link) bool {
		_, src := ids[l.Src]
		if _, tgt := ids[l.Tgt]; src && tgt {
			kept = append(kept, l)
		}
		return true
	})
	sub := New()
	sub.load(ns, kept)
	return sub
}

// InducedByLinks returns the subgraph of g induced by the given link set:
// those links plus precisely the nodes they are incident on (Definition 2's
// "subgraph induced by those links"). Values are shared with g.
func (g *Graph) InducedByLinks(ids map[LinkID]struct{}) *Graph {
	var kept []*Link
	ends := make(map[NodeID]struct{})
	var ns []*Node
	for lid := range ids {
		l, ok := g.links.Get(lid)
		if !ok {
			continue
		}
		for _, id := range [2]NodeID{l.Src, l.Tgt} {
			if _, seen := ends[id]; !seen {
				ends[id] = struct{}{}
				ns = append(ns, g.nodes.At(id))
			}
		}
		kept = append(kept, l)
	}
	sub := New()
	sub.load(ns, kept)
	return sub
}

// load installs ns and ls, and the adjacency of ls, on a graph that holds
// no node or link yet, raising the high-water marks over their ids: one
// Build per trie. Ids must be distinct and every link's endpoints among
// ns. It sorts ls.
func (g *Graph) load(ns []*Node, ls []*Link) {
	nids := make([]NodeID, len(ns))
	for i, n := range ns {
		nids[i] = n.ID
		g.noteNodeID(n.ID)
	}
	g.nodes = g.nodes.Build(nids, ns)
	lids := make([]LinkID, len(ls))
	for i, l := range ls {
		lids[i] = l.ID
		g.noteLinkID(l.ID)
	}
	g.links = g.links.Build(lids, ls)
	g.setAdjacencyOf(ls)
}

// setAdjacencyOf installs the out/in lists of ls on a graph with no
// adjacency yet, in the ascending-id order every Graph maintains. It sorts
// ls.
func (g *Graph) setAdjacencyOf(ls []*Link) {
	sortByID(ls)
	g.out, g.in = adjacencyOf(ls, g.nodes.Len())
}

// sortByID sorts ls, whose ids are distinct, by id: by placing each link
// at its id in a table over their span when that is at most a couple of
// slots per link, else through (id, link) pairs, so no comparison
// dereferences a link. It leaves ls be when it is already in order.
func sortByID(ls []*Link) {
	if slices.IsSortedFunc(ls, func(a, b *Link) int { return cmp.Compare(a.ID, b.ID) }) {
		return
	}
	lo, hi := ls[0].ID, ls[0].ID
	for _, l := range ls {
		lo, hi = min(lo, l.ID), max(hi, l.ID)
	}
	if span := uint64(hi) - uint64(lo); span < uint64(2*len(ls)+64) {
		slots := make([]*Link, span+1)
		for _, l := range ls {
			slots[l.ID-lo] = l
		}
		copy(ls, slices.DeleteFunc(slots, func(l *Link) bool { return l == nil }))
		return
	}
	type idLink struct {
		id LinkID
		l  *Link
	}
	ps := make([]idLink, len(ls))
	for i, l := range ls {
		ps[i] = idLink{l.ID, l}
	}
	slices.SortFunc(ps, func(a, b idLink) int { return cmp.Compare(a.id, b.id) })
	for i, p := range ps {
		ls[i] = p.l
	}
}

// adjacencyOf groups ls, sorted by id, by their sources and by their
// targets into the out and in adjacency indexes, in two passes over ls,
// with exact-size lists. The ends are numbered in order of first
// appearance, over a table sized for at most ends of them. Each list is
// its own allocation, so a write that replaces one frees it.
func adjacencyOf(ls []*Link, ends int) (out, in persist.Map[NodeID, []*Link]) {
	out, in = persist.NewIntMap[NodeID, []*Link](), persist.NewIntMap[NodeID, []*Link]()
	if len(ls) == 0 {
		return out, in
	}
	// Slot 2e of the tables below is end e's out-list, 2e+1 its in-list.
	ends = min(2*len(ls), ends)
	var num persist.Numbering[NodeID]
	num.Reset(ends)
	count := make([]int32, 0, 2*ends)
	for _, l := range ls {
		for d, end := range [2]NodeID{l.Src, l.Tgt} {
			e := num.Add(end)
			if 2*e == len(count) {
				count = append(count, 0, 0)
			}
			count[2*e+d]++
		}
	}
	lists := make([][]*Link, len(count))
	for p, c := range count {
		if c > 0 {
			lists[p] = make([]*Link, 0, c)
		}
	}
	for _, l := range ls {
		s, t := 2*num.Add(l.Src), 2*num.Add(l.Tgt)+1
		lists[s] = append(lists[s], l)
		lists[t] = append(lists[t], l)
	}
	ids := num.Keys()
	return buildAdjacency(out, ids, lists, 0), buildAdjacency(in, ids, lists, 1)
}

// buildAdjacency builds the index of the lists of direction d (0 out, 1
// in) in lists, the two directions interleaved per end of ids, keeping
// only the ends that have one.
func buildAdjacency(m persist.Map[NodeID, []*Link], ids []NodeID, lists [][]*Link, d int) persist.Map[NodeID, []*Link] {
	keys := make([]NodeID, 0, len(ids))
	vals := make([][]*Link, 0, len(ids))
	for e, id := range ids {
		if l := lists[2*e+d]; l != nil {
			keys, vals = append(keys, id), append(vals, l)
		}
	}
	return m.Build(keys, vals)
}

// Equal reports whether two graphs contain equal node and link sets.
func (g *Graph) Equal(other *Graph) bool {
	if g.NumNodes() != other.NumNodes() || g.NumLinks() != other.NumLinks() {
		return false
	}
	eq := true
	g.nodes.Range(func(id NodeID, n *Node) bool {
		eq = n.Equal(other.nodes.At(id))
		return eq
	})
	if !eq {
		return false
	}
	g.links.Range(func(id LinkID, l *Link) bool {
		eq = l.Equal(other.links.At(id))
		return eq
	})
	return eq
}

// MaxNodeID returns the node-id high-water mark: the largest node id the
// graph has ever held, O(1). It is monotonic — removals do not lower it —
// and survives ShallowClone/Clone, so ids allocated past it (IDSourceFor)
// never collide with a live id and never resurrect a retracted one.
func (g *Graph) MaxNodeID() NodeID { return g.maxNode }

// MaxLinkID returns the link-id high-water mark (see MaxNodeID).
func (g *Graph) MaxLinkID() LinkID { return g.maxLink }

// Validate checks internal consistency: every link's endpoints exist, the
// adjacency indexes hold exactly the stored links (pointer identity) in
// ascending id order, the id high-water marks bound every present id, and
// a neighbourhood view, when one is present, equals a fresh derivation. It
// returns the first violation.
func (g *Graph) Validate() error {
	var err error
	g.links.Range(func(id LinkID, l *Link) bool {
		switch {
		case l.ID != id:
			err = fmt.Errorf("graph: link stored under id %d has id %d", id, l.ID)
		case !g.HasNode(l.Src) || !g.HasNode(l.Tgt):
			err = fmt.Errorf("%w: link %d (%d->%d)", ErrMissingEnd, id, l.Src, l.Tgt)
		case id > g.maxLink:
			err = fmt.Errorf("graph: link %d above high-water mark %d", id, g.maxLink)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	outCount, err := g.validateAdjacency("out", g.out, Src)
	if err != nil {
		return err
	}
	inCount, err := g.validateAdjacency("in", g.in, Tgt)
	if err != nil {
		return err
	}
	if outCount != g.links.Len() || inCount != g.links.Len() {
		return fmt.Errorf("graph: adjacency indexes cover %d/%d links (out/in %d/%d)",
			outCount, g.links.Len(), outCount, inCount)
	}
	g.nodes.Range(func(id NodeID, n *Node) bool {
		switch {
		case n.ID != id:
			err = fmt.Errorf("graph: node stored under id %d has id %d", id, n.ID)
		case id > g.maxNode:
			err = fmt.Errorf("graph: node %d above high-water mark %d", id, g.maxNode)
		}
		return err == nil
	})
	if v := g.view.Load(); v != nil && err == nil {
		err = v.check(buildNeighbourhood(g))
	}
	return err
}

// validateAdjacency checks one adjacency index: every entry is the stored
// link itself with the keyed node at end d, in ascending id order. It
// returns the number of entries.
func (g *Graph) validateAdjacency(name string, adj persist.Map[NodeID, []*Link], d Direction) (int, error) {
	count := 0
	var err error
	adj.Range(func(id NodeID, ls []*Link) bool {
		for i, l := range ls {
			if l == nil || g.links.At(l.ID) != l || l.End(d) != id {
				err = fmt.Errorf("graph: %s index for node %d lists a link that is not stored there", name, id)
				return false
			}
			if i > 0 && ls[i-1].ID >= l.ID {
				err = fmt.Errorf("graph: %s index for node %d not in ascending order", name, id)
				return false
			}
			count++
		}
		return true
	})
	return count, err
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes=%d links=%d}", g.NumNodes(), g.NumLinks())
}
