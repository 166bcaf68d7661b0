package graph

import "testing"

// buildSmall returns a recorded graph: two users, one item, a friendship
// and a tagging action.
func buildSmall(t *testing.T) (*Graph, *Changelog) {
	t.Helper()
	g := New()
	log := RecordInto(g)
	for id := NodeID(1); id <= 2; id++ {
		if err := g.AddNode(NewNode(id, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddNode(NewNode(3, TypeItem)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(NewLink(1, 1, 2, TypeConnect, SubtypeFriend)); err != nil {
		t.Fatal(err)
	}
	tagLink := NewLink(2, 1, 3, TypeAct, SubtypeTag)
	tagLink.SetAttrs(NewAttrs("tags", "museum"))
	if err := g.AddLink(tagLink); err != nil {
		t.Fatal(err)
	}
	return g, log
}

func TestRecorderEmitsWrites(t *testing.T) {
	g, log := buildSmall(t)
	muts := log.Drain()
	if len(muts) != 5 {
		t.Fatalf("recorded %d mutations, want 5", len(muts))
	}
	wantKinds := []MutationKind{MutAddNode, MutAddNode, MutAddNode, MutAddLink, MutAddLink}
	for i, m := range muts {
		if m.Kind != wantKinds[i] {
			t.Errorf("mutation %d: kind %v, want %v", i, m.Kind, wantKinds[i])
		}
	}
	// Snapshots are clones: editing the live element must not alter history.
	g.Link(2).AddAttr("tags", "historic")
	if got := muts[4].Link.Attrs().All("tags"); len(got) != 1 || got[0] != "museum" {
		t.Errorf("changelog snapshot mutated through live link: %v", got)
	}
	if log.Len() != 0 {
		t.Errorf("drain did not reset the log: %d left", log.Len())
	}
}

func TestRecorderCascadesNodeRemoval(t *testing.T) {
	g, log := buildSmall(t)
	log.Drain()
	g.RemoveNode(1) // incident: links 1 and 2
	muts := log.Drain()
	if len(muts) != 3 {
		t.Fatalf("recorded %d mutations, want 3 (2 link removals + node removal)", len(muts))
	}
	if muts[0].Kind != MutRemoveLink || muts[1].Kind != MutRemoveLink {
		t.Errorf("cascade did not emit link removals first: %v %v", muts[0].Kind, muts[1].Kind)
	}
	last := muts[2]
	if last.Kind != MutRemoveNode || last.Node.ID != 1 {
		t.Errorf("final mutation: %v node %v, want remove-node 1", last.Kind, last.Node)
	}
	// Removed-link snapshots carry the full link, tags included.
	for _, m := range muts[:2] {
		if m.Link.ID == 2 {
			if got := m.Link.Attrs().All("tags"); len(got) != 1 || got[0] != "museum" {
				t.Errorf("removed tag link lost its attrs: %v", got)
			}
		}
	}
}

func TestApplyReplaysChangelog(t *testing.T) {
	g, log := buildSmall(t)
	g.PutNode(NewNode(2, TypeUser, TypeGroup)) // consolidation
	g.RemoveLink(1)
	replica := New()
	if err := replica.ApplyAll(log.Drain()); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(replica) {
		t.Fatalf("replay diverged:\n got %v\nwant %v", replica, g)
	}
}

func TestApplyIsCopyOnWrite(t *testing.T) {
	g, log := buildSmall(t)
	log.Drain()
	snap := g.ShallowClone()

	// Consolidate into the clone; the shared node value must stay intact.
	merged := NewNode(2, TypeUser)
	merged.Attrs = NewAttrs("city", "denver")
	if err := snap.Apply(Mutation{Kind: MutPutNode, Node: merged}); err != nil {
		t.Fatal(err)
	}
	if got := g.Node(2).Attrs.Get("city"); got != "" {
		t.Errorf("consolidation leaked into the original graph: city=%q", got)
	}
	if got := snap.Node(2).Attrs.Get("city"); got != "denver" {
		t.Errorf("consolidation missing from the clone: city=%q", got)
	}

	// Structural ops on the clone must not disturb the original either.
	if err := snap.Apply(Mutation{Kind: MutRemoveLink, Link: g.Link(1).Clone()}); err != nil {
		t.Fatal(err)
	}
	if !g.HasLink(1) {
		t.Error("link removal leaked into the original graph")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original graph corrupted: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("clone corrupted: %v", err)
	}
}

func TestApplyEndpointChange(t *testing.T) {
	g, _ := buildSmall(t)
	bad := NewLink(1, 1, 3, TypeConnect)
	if err := g.Apply(Mutation{Kind: MutPutLink, Link: bad}); err == nil {
		t.Fatal("expected endpoint-change error")
	}
}
