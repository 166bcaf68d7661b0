// Golden consumer: every write through a value obtained from an
// //ss:immutable accessor is a snapshot corruption; Clone-then-mutate
// and persistent-update shapes stay clean.
package consumer

import (
	"sort"

	"example/snap"
)

func elementWrite(g *snap.Graph) {
	ls := g.Out("u")
	ls[0] = nil // want `element write through a value from example/snap\.Graph\.Out`
}

func fieldWrite(g *snap.Graph) {
	l := g.Out("u")[0]
	l.Score = 2 // want `field write through a value from example/snap\.Graph\.Out`
}

func sortInPlace(g *snap.Graph) {
	ls := g.In("u")
	sort.Slice(ls, func(i, j int) bool { return ls[i].Score > ls[j].Score }) // want `sort\.Slice reorders a value from example/snap\.Graph\.In`
}

func rangeIncrement(g *snap.Graph) {
	for _, l := range g.Out("u") {
		l.Score++ // want `increment through a value from example/snap\.Graph\.Out`
	}
}

func appendAliases(g *snap.Graph, extra *snap.Link) {
	// append can reuse the snapshot's backing array when capacity
	// allows — the result is still tainted.
	ls := append(g.Out("u"), extra)
	ls[0] = extra // want `element write through a value from example/snap\.Graph\.Out`
}

func copyInto(g *snap.Graph, fresh []*snap.Link) {
	ls := g.Out("u")
	copy(ls, fresh) // want `copy into a value from example/snap\.Graph\.Out`
}

func mutatorDiscarded(m *snap.Map) {
	attrs := m.At("k")
	attrs.Add("tag") // want `Add\(\) with a discarded result on a value from example/snap\.Map\.At`
}

func tupleGet(m *snap.Map) {
	attrs, ok := m.Get("k")
	if ok {
		attrs.Set("tag", 1) // want `Set\(\) with a discarded result on a value from example/snap\.Map\.Get`
	}
}

func setIntDiscarded(m *snap.Map) {
	attrs := m.At("k")
	attrs.SetInt("rating", 4) // want `SetInt\(\) with a discarded result on a value from example/snap\.Map\.At`
}

func addTypeDiscarded(g *snap.Graph) {
	for _, l := range g.Out("u") {
		l.AddType("tag") // want `AddType\(\) with a discarded result on a value from example/snap\.Graph\.Out`
	}
}

// typeAndIntOnClones: AddType on a link's clone, and SetInt on a deep
// graph clone's attributes, touch private state.
func typeAndIntOnClones(g *snap.Graph) {
	l := g.Out("u")[0].Clone()
	l.AddType("tag") // clean: Clone broke the alias
	out := g.Clone()
	out.Out("u")[0].Attrs.SetInt("rating", 4) // clean: private all the way down
}

// bodyMutatorsDiscarded: a link's body mutators copy a shared body, but
// they write the link itself, which readers of the snapshot hold.
func bodyMutatorsDiscarded(g *snap.Graph, a *snap.Attrs) {
	e := g.Edges("u")[0]
	e.SetAttr("tags", 1)        // want `SetAttr\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	e.SetAttrs(a)               // want `SetAttrs\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	e.AddAttr("tags")           // want `AddAttr\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	e.SetAttrFloat("rating", 4) // want `SetAttrFloat\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	e.MergeAttrs(a)             // want `MergeAttrs\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	e.SetScore(1)               // want `SetScore\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
}

// writesThroughViews: Attrs and Types hand out a link's body, which other
// links may share.
func writesThroughViews(g *snap.Graph) {
	e := g.Edges("u")[0]
	e.Attrs().Add("tag") // want `Add\(\) with a discarded result on a value from example/snap\.Graph\.Edges`
	ts := e.Types()
	ts[0] = "x" // want `element write through a value from example/snap\.Graph\.Edges`
}

// bodyMutatorsOnClone is the sanctioned pattern: a clone's body is its own.
func bodyMutatorsOnClone(g *snap.Graph, a *snap.Attrs) {
	e := g.Edges("u")[0].Clone()
	e.SetAttr("tags", 1) // clean: Clone broke the alias
	e.MergeAttrs(a)      // clean
	e.Attrs().Add("tag") // clean
	e.Types()[0] = "x"   // clean
}

func packageLevelAccessor(g *snap.Graph) {
	posting := snap.List(g, "beach")
	posting[0] = nil // want `element write through a value from example/snap\.List`
}

// cloneThenMutate is the sanctioned pattern.
func cloneThenMutate(g *snap.Graph) {
	l := g.Out("u")[0].Clone()
	l.Score = 2 // clean: Clone broke the alias
}

// clonedReceiver: accessors called on a deep clone return private
// state — the operator idiom (out := g.Clone(); mutate out's elements).
func clonedReceiver(g *snap.Graph) {
	out := g.Clone()
	l := out.Out("u")[0]
	l.Score = 2 // clean: out is a deep clone, its elements are private
}

// clonedReceiverElements: a deep clone's elements are private however
// they are reached — indexing, ranging, field selection.
func clonedReceiverElements(g *snap.Graph) {
	out := g.Clone()
	ls := out.In("u")
	ls[0].Score = 2 // clean: the element is the clone's own copy
	for _, l := range out.Out("u") {
		l.Score++ // clean
	}
	l := ls[1]
	l.Attrs.Add("tag") // clean: private all the way down
}

// clonedReceiverSliceWrites: the slice an accessor returns on a deep clone
// is still the clone's own storage (graph.Out hands out its adjacency
// list), so writing the slice itself corrupts the clone.
func clonedReceiverSliceWrites(g *snap.Graph, fresh []*snap.Link) {
	out := g.Clone()
	ls := out.Out("u")
	ls[0] = fresh[0]                                                         // want `element write through a value from example/snap\.Graph\.Out`
	sort.Slice(ls, func(i, j int) bool { return ls[i].Score > ls[j].Score }) // want `sort\.Slice reorders a value from example/snap\.Graph\.Out`
	copy(out.In("u"), fresh)                                                 // want `copy into a value from example/snap\.Graph\.In`
	grown := append(out.In("u"), fresh...)
	grown[0] = nil // want `element write through a value from example/snap\.Graph\.In`
}

// persistentUpdate: Map.Set returns a new map; using the result is the
// point, and the receiver was never tainted.
func persistentUpdate(m *snap.Map, a *snap.Attrs) *snap.Map {
	next := m.Set("k", a) // clean: value-returning persistent update
	return next
}

// reassignClears: a variable rebound to fresh state is no longer an
// alias.
func reassignClears(g *snap.Graph, fresh []*snap.Link) {
	ls := g.Out("u")
	ls = fresh
	ls[0] = nil // clean: ls no longer aliases the snapshot
}

// freshSliceWrites never touch the snapshot.
func freshSliceWrites(fresh []*snap.Link) {
	fresh[0] = nil                                                                    // clean
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Score > fresh[j].Score }) // clean
}
