package graph

import (
	"cmp"
	"fmt"
	"slices"

	"socialscope/internal/persist"
)

// Endorser is one entry of an item's endorser vector (Graph.Endorsers): a
// node with an act link onto the item, and the rating of its lowest-id
// such link — the link rating(u, i) reads.
type Endorser struct {
	ID     NodeID
	Rating float64
}

// neighbourhood is the act-link neighbourhood view of one snapshot, the
// three facts §7's explanations and groupings and Example 3's related
// users all read: acts[u] holds the targets of u's act links and
// endorsers[i] the sources of act links onto i, each ascending and
// deduplicated. Nodes without act links have no entry, so no stored
// vector is empty. A view is never modified once built; a successor
// snapshot gets a patched copy that shares every untouched vector.
type neighbourhood struct {
	acts      persist.Map[NodeID, []NodeID]
	endorsers persist.Map[NodeID, []Endorser]
}

// Acts returns the targets of u's act links in ascending order, without
// repeats: Items(u) in §7.2, the items a user acted on.
//
// The view behind it belongs to the snapshot. The first call on a
// snapshot builds it from the adjacency in one pass; ShallowClone carries
// it to the clone, ApplyAll patches only the keys its batch touched, and
// every other write drops it. Safe for concurrent readers of a published
// snapshot, which may race to build it.
//
//ss:immutable — never write the slice.
func (g *Graph) Acts(u NodeID) []NodeID { return g.neighbourhood().acts.At(u) }

// Connections returns the other ends of u's connect links in either
// direction, ascending and without repeats: network(u) in Definitions 11
// and 13, the friends §7's explanations count. u itself is among them when
// it has a connect self-loop, and endpoints of any node type count. Unlike
// Acts it is derived on each call from u's adjacency, into a fresh slice
// the caller owns.
func (g *Graph) Connections(u NodeID) []NodeID {
	var ids []NodeID
	for _, l := range g.out.At(u) {
		if l.HasType(TypeConnect) {
			ids = append(ids, l.Tgt)
		}
	}
	for _, l := range g.in.At(u) {
		if l.HasType(TypeConnect) {
			ids = append(ids, l.Src)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Endorsers returns the sources of act links onto i in ascending id
// order, without repeats — taggers(i) in Definition 14 — each with the
// rating of its lowest-id act link onto i. See Acts for the view's life
// cycle.
//
//ss:immutable — never write the slice.
func (g *Graph) Endorsers(i NodeID) []Endorser { return g.neighbourhood().endorsers.At(i) }

// neighbourhood returns the snapshot's view, building it on first use.
// Concurrent first readers may each build one; the first to publish wins
// and the others adopt it.
func (g *Graph) neighbourhood() *neighbourhood {
	if v := g.view.Load(); v != nil {
		return v
	}
	v := buildNeighbourhood(g)
	if g.view.CompareAndSwap(nil, v) {
		return v
	}
	return g.view.Load()
}

// dropView discards the view ahead of a write it does not follow.
func (g *Graph) dropView() {
	if g.view.Load() != nil {
		g.view.Store(nil)
	}
}

// buildNeighbourhood derives the view from g's adjacency: one pass over the
// out-lists, one over the in-lists, each collecting the vectors one Build
// lays out.
func buildNeighbourhood(g *Graph) *neighbourhood {
	var s scratch
	us := make([]NodeID, 0, g.out.Len())
	acts := make([][]NodeID, 0, g.out.Len())
	g.out.Range(func(u NodeID, out []*Link) bool {
		if v := s.acts(out); len(v) > 0 {
			us = append(us, u)
			acts = append(acts, persist.CloneExact(v))
		}
		return true
	})
	is := make([]NodeID, 0, g.in.Len())
	endorsers := make([][]Endorser, 0, g.in.Len())
	g.in.Range(func(i NodeID, in []*Link) bool {
		if v := s.endorsers(in); len(v) > 0 {
			is = append(is, i)
			endorsers = append(endorsers, persist.CloneExact(v))
		}
		return true
	})
	return &neighbourhood{
		acts:      persist.NewIntMap[NodeID, []NodeID]().Build(us, acts),
		endorsers: persist.NewIntMap[NodeID, []Endorser]().Build(is, endorsers),
	}
}

// scratch holds the buffers one derivation reuses across nodes.
type scratch struct {
	ids   []NodeID
	links []*Link
	ends  []Endorser
}

// acts returns the act targets among out, ascending and deduplicated, in a
// buffer valid until the next call.
func (s *scratch) acts(out []*Link) []NodeID {
	s.ids = s.ids[:0]
	for _, l := range out {
		if l.HasType(TypeAct) {
			s.ids = append(s.ids, l.Tgt)
		}
	}
	slices.Sort(s.ids)
	s.ids = slices.Compact(s.ids)
	return s.ids
}

// endorsers returns the act sources among in, ascending and deduplicated,
// in a buffer valid until the next call. in is in ascending link-id order
// and the sort is stable, so each source's first link is its lowest-id
// one.
func (s *scratch) endorsers(in []*Link) []Endorser {
	s.links = s.links[:0]
	for _, l := range in {
		if l.HasType(TypeAct) {
			s.links = append(s.links, l)
		}
	}
	slices.SortStableFunc(s.links, func(a, b *Link) int { return cmp.Compare(a.Src, b.Src) })
	s.ends = s.ends[:0]
	for i, l := range s.links {
		if i == 0 || l.Src != s.links[i-1].Src {
			s.ends = append(s.ends, Endorser{ID: l.Src, Rating: l.Rating()})
		}
	}
	return s.ends
}

// viewTouch collects the keys a batch may have changed: the act sources
// whose Acts and the act targets whose Endorsers must be re-derived.
type viewTouch struct {
	acts, ends []NodeID
}

// note records what m is about to touch; call it before applying m, so a
// removed node's neighbours are read while its links still exist.
func (t *viewTouch) note(g *Graph, m Mutation) {
	switch m.Kind {
	case MutAddLink, MutPutLink, MutRemoveLink:
		if m.Link == nil {
			return
		}
		t.link(m.Link)
		if ex := g.links.At(m.Link.ID); ex != nil {
			t.link(ex)
		}
	case MutRemoveNode:
		if m.Node == nil {
			return
		}
		id := m.Node.ID
		t.acts = append(t.acts, id)
		t.ends = append(t.ends, id)
		for _, l := range g.out.At(id) {
			t.link(l)
		}
		for _, l := range g.in.At(id) {
			t.link(l)
		}
	}
}

func (t *viewTouch) link(l *Link) {
	if l.HasType(TypeAct) {
		t.acts = append(t.acts, l.Src)
		t.ends = append(t.ends, l.Tgt)
	}
}

// patch returns the view of g after a batch, given the receiver (the view
// before it) and the keys the batch touched: those are re-derived from g's
// adjacency, everything else is shared. It writes through g's open bulk
// window.
func (v *neighbourhood) patch(g *Graph, t *viewTouch) *neighbourhood {
	var s scratch
	acts := v.acts
	for _, u := range sortedSet(t.acts) {
		acts = setVector(acts, g.bulk, u, s.acts(g.out.At(u)))
	}
	endorsers := v.endorsers
	for _, i := range sortedSet(t.ends) {
		endorsers = setVector(endorsers, g.bulk, i, s.endorsers(g.in.At(i)))
	}
	return &neighbourhood{acts: acts, endorsers: endorsers}
}

func sortedSet(ids []NodeID) []NodeID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// setVector rebinds key k of m to a copy of vec, deleting it when vec is
// empty and leaving m alone when the stored vector already equals vec.
func setVector[T comparable](m persist.Map[NodeID, []T], e *persist.Edit, k NodeID, vec []T) persist.Map[NodeID, []T] {
	switch {
	case slices.Equal(m.At(k), vec):
		return m
	case len(vec) == 0:
		return m.DeleteWith(e, k)
	}
	return m.SetWith(e, k, persist.CloneExact(vec))
}

// check compares the view with want, a fresh derivation.
func (v *neighbourhood) check(want *neighbourhood) error {
	if err := sameVectors("Acts", v.acts, want.acts); err != nil {
		return err
	}
	return sameVectors("Endorsers", v.endorsers, want.endorsers)
}

func sameVectors[T comparable](name string, got, want persist.Map[NodeID, []T]) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("graph: neighbourhood view holds %d %s vectors, adjacency gives %d", got.Len(), name, want.Len())
	}
	var err error
	want.Range(func(k NodeID, w []T) bool {
		if g := got.At(k); !slices.Equal(g, w) {
			err = fmt.Errorf("graph: neighbourhood view %s(%d) = %v, adjacency gives %v", name, k, g, w)
		}
		return err == nil
	})
	return err
}
