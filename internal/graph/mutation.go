package graph

import (
	"sync"
)

// MutationKind identifies one write operation on a graph.
type MutationKind uint8

const (
	// MutAddNode records a fresh node insertion.
	MutAddNode MutationKind = iota
	// MutPutNode records a node consolidation (Definition 3 merge); the
	// mutation carries the post-merge node state.
	MutPutNode
	// MutAddLink records a fresh link insertion.
	MutAddLink
	// MutPutLink records a link consolidation; the mutation carries the
	// post-merge link state.
	MutPutLink
	// MutRemoveNode records a node deletion. A recorder emits the node's
	// incident MutRemoveLink mutations first, so a changelog replays the
	// same cascade the original graph performed.
	MutRemoveNode
	// MutRemoveLink records a link deletion; the mutation carries a
	// snapshot of the removed link so downstream maintenance (index delta
	// application) knows which activity disappeared.
	MutRemoveLink
)

func (k MutationKind) String() string {
	switch k {
	case MutAddNode:
		return "add-node"
	case MutPutNode:
		return "put-node"
	case MutAddLink:
		return "add-link"
	case MutPutLink:
		return "put-link"
	case MutRemoveNode:
		return "remove-node"
	case MutRemoveLink:
		return "remove-link"
	}
	return "unknown"
}

// Mutation is one entry of a graph changelog: the write operation plus a
// snapshot (deep clone) of the element it touched, taken at emission time
// so later edits to the live element cannot retroactively change history.
// Node is set for node ops, Link for link ops.
type Mutation struct {
	Kind MutationKind
	Node *Node
	Link *Link
	// Prev is the pre-merge state of a MutPutLink consolidation (nil for
	// every other kind). Incremental index maintenance diffs Prev against
	// Link to learn which activities the merge actually added, instead of
	// re-counting facts the link already asserted.
	Prev *Link
}

// SetRecorder installs a changelog callback invoked after every successful
// write operation (AddNode, PutNode, AddLink, PutLink, RemoveNode,
// RemoveLink; a Builder's writes after it has handed out its graph route
// through these). A nil fn detaches the recorder. The callback runs
// synchronously on the mutating goroutine; keep it cheap and do not
// mutate the graph from inside it.
func (g *Graph) SetRecorder(fn func(Mutation)) { g.recorder = fn }

// emitNode and emitLink snapshot the element only when a recorder is
// attached, keeping recorder-less graph construction free of clone work.
func (g *Graph) emitNode(kind MutationKind, n *Node) {
	if g.recorder != nil {
		g.recorder(Mutation{Kind: kind, Node: n.Clone()})
	}
}

func (g *Graph) emitLink(kind MutationKind, l *Link) {
	if g.recorder != nil {
		g.recorder(Mutation{Kind: kind, Link: l.Clone()})
	}
}

// Changelog accumulates mutations from one or more graphs. It is safe for
// concurrent appends, so a recorder can stay attached while several
// writers take turns (the graph itself still requires external write
// serialization).
type Changelog struct {
	mu   sync.Mutex
	muts []Mutation
}

// Record appends one mutation.
func (c *Changelog) Record(m Mutation) {
	c.mu.Lock()
	c.muts = append(c.muts, m)
	c.mu.Unlock()
}

// Len returns the number of recorded mutations.
func (c *Changelog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.muts)
}

// Drain returns the recorded mutations and resets the log.
func (c *Changelog) Drain() []Mutation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.muts
	c.muts = nil
	return out
}

// RecordInto attaches a fresh Changelog to the graph as its recorder and
// returns it. Subsequent write operations append to the log until the
// recorder is replaced.
func RecordInto(g *Graph) *Changelog {
	c := &Changelog{}
	g.SetRecorder(c.Record)
	return c
}

// Apply replays one mutation onto the graph. Replay never mutates shared
// element values: consolidations (PutNode/PutLink) merge on a clone of
// the resident element and swap the clone in, so a graph produced by
// ShallowClone can absorb a changelog while readers of the original keep
// a consistent view (the copy-on-write discipline Engine.Apply builds
// its snapshots on). Fresh insertions store a clone of the mutation's
// element, so later edits to the caller's copy cannot leak in; a link's
// clone shares its attribute set where it can (see Link). Removals
// of absent elements are no-ops, which makes replaying a changelog that
// already cascaded (MutRemoveNode after its incident MutRemoveLink
// entries) idempotent.
func (g *Graph) Apply(m Mutation) error {
	switch m.Kind {
	case MutAddNode, MutPutNode:
		if m.Node == nil {
			return ErrNilElement
		}
		if g.nodes.Has(m.Node.ID) {
			g.PutNode(m.Node)
			return nil
		}
		return g.AddNode(m.Node.Clone())
	case MutAddLink, MutPutLink:
		if m.Link == nil {
			return ErrNilElement
		}
		if g.links.Has(m.Link.ID) {
			return g.PutLink(m.Link)
		}
		return g.AddLink(m.Link.stored())
	case MutRemoveNode:
		if m.Node == nil {
			return ErrNilElement
		}
		g.RemoveNode(m.Node.ID)
		return nil
	case MutRemoveLink:
		if m.Link == nil {
			return ErrNilElement
		}
		g.RemoveLink(m.Link.ID)
		return nil
	}
	return ErrNilElement
}

// ApplyAll replays mutations in order, stopping at the first error. The
// batch runs inside a bulk-mutation window, sealed again before returning
// (even on error) unless the caller opened it; snapshots taken before the
// call never observe the batch.
//
// A neighbourhood view the graph holds (see Acts) survives the batch: the
// keys it touched are re-derived from the post-batch adjacency and the
// rest is shared with the pre-batch view. A batch that fails keeps no
// view its writes could have made stale: they drop it.
func (g *Graph) ApplyAll(muts []Mutation) error {
	view := g.view.Load()
	if g.bulk == nil {
		g.BeginBulk()
		defer g.EndBulk()
	}
	var touched viewTouch
	for _, m := range muts {
		if view != nil {
			touched.note(g, m)
		}
		if err := g.Apply(m); err != nil {
			return err
		}
	}
	if view != nil {
		g.view.Store(view.patch(g, &touched))
	}
	return nil
}
