package graph

import (
	"fmt"
	"sync"
	"testing"
)

// bulkTestGraph builds a connected user/item graph with users users and
// items items, each user tagging one item.
func bulkTestGraph(users, items int) *Graph {
	b := NewBuilder()
	uids := make([]NodeID, users)
	for i := range uids {
		uids[i] = b.Node([]string{TypeUser}, "name", fmt.Sprintf("u%d", i))
	}
	iids := make([]NodeID, items)
	for i := range iids {
		iids[i] = b.Node([]string{TypeItem}, "name", fmt.Sprintf("i%d", i))
	}
	for i, u := range uids {
		b.Link(u, uids[(i+1)%len(uids)], []string{TypeConnect, SubtypeFriend})
		l := NewLink(b.IDs().NextLink(), u, iids[i%len(iids)], TypeAct, SubtypeTag)
		l.AddAttr("tags", fmt.Sprintf("t%d", i%7))
		if err := b.Graph().AddLink(l); err != nil {
			panic(err)
		}
	}
	return b.Graph()
}

// TestBulkApplyAllSnapshotIsolation: every ApplyAll batch runs in a bulk
// window, which must leave every pre-batch snapshot byte-for-byte intact,
// and the post-batch graph must equal the one the persistent path builds
// by replaying the batch with Apply, outside any window.
func TestBulkApplyAllSnapshotIsolation(t *testing.T) {
	for _, n := range []int{1, 8, 96} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			g := bulkTestGraph(40, 20)
			snap := g.ShallowClone()
			wantNodes, wantLinks := snap.NumNodes(), snap.NumLinks()

			var muts []Mutation
			ids := IDSourceFor(g)
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					node := NewNode(ids.NextNode(), TypeUser)
					muts = append(muts, Mutation{Kind: MutAddNode, Node: node})
				case 1:
					l := NewLink(ids.NextLink(), 1, 2, TypeConnect)
					muts = append(muts, Mutation{Kind: MutAddLink, Link: l})
				case 2:
					l := NewLink(ids.NextLink(), 2, 3, TypeAct, SubtypeTag)
					l.AddAttr("tags", fmt.Sprintf("bulk%d", i))
					muts = append(muts, Mutation{Kind: MutAddLink, Link: l})
				}
			}

			ref := snap.ShallowClone()
			for _, m := range muts {
				if err := ref.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
			if ref.bulk != nil {
				t.Fatal("the persistent reference ran in a bulk window")
			}

			if err := g.ApplyAll(muts); err != nil {
				t.Fatal(err)
			}
			if g.bulk != nil {
				t.Fatal("ApplyAll left its bulk window open")
			}
			if snap.NumNodes() != wantNodes || snap.NumLinks() != wantLinks {
				t.Fatalf("snapshot grew to %d/%d under bulk ApplyAll", snap.NumNodes(), snap.NumLinks())
			}
			if err := snap.Validate(); err != nil {
				t.Fatalf("snapshot corrupted: %v", err)
			}
			if !g.Equal(ref) {
				t.Fatal("bulk ApplyAll result differs from persistent per-mutation replay")
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("bulk-applied graph invalid: %v", err)
			}
		})
	}
}

// TestBulkWindowSealedBySnapshot: ShallowClone must close an open window
// so the snapshot and the origin can never share in-place-mutable nodes.
func TestBulkWindowSealedBySnapshot(t *testing.T) {
	g := bulkTestGraph(10, 5)
	g.BeginBulk()
	if err := g.AddNode(NewNode(IDSourceFor(g).NextNode(), TypeUser)); err != nil {
		t.Fatal(err)
	}
	snap := g.ShallowClone()
	if g.bulk != nil {
		t.Fatal("ShallowClone did not seal the origin's bulk window")
	}
	// Writes after the snapshot must copy-on-write again.
	n := snap.NumNodes()
	if err := g.AddNode(NewNode(IDSourceFor(g).NextNode(), TypeUser)); err != nil {
		t.Fatal(err)
	}
	if snap.NumNodes() != n {
		t.Fatal("snapshot observed a post-seal write")
	}
}

// TestBulkCloneAndInducedMatchPersistent: the transient-built Clone and
// induced subgraphs must be element-for-element identical to what the
// persistent path builds, with deterministic adjacency order intact.
func TestBulkCloneAndInducedMatchPersistent(t *testing.T) {
	g := bulkTestGraph(60, 30)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("Clone differs from origin")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the clone must not reach the origin.
	c.RemoveNode(c.NodeIDs()[0])
	if g.Equal(c) {
		t.Fatal("clone mutation reached origin")
	}

	keep := make(map[NodeID]struct{})
	for i, id := range g.NodeIDs() {
		if i%2 == 0 {
			keep[id] = struct{}{}
		}
	}
	sub := g.InducedByNodes(keep)
	if err := sub.Validate(); err != nil {
		t.Fatalf("induced subgraph invalid: %v", err)
	}
	for _, l := range sub.Links() {
		if !g.HasLink(l.ID) {
			t.Fatalf("induced subgraph invented link %d", l.ID)
		}
	}

	links := make(map[LinkID]struct{})
	for i, id := range g.LinkIDs() {
		if i%3 == 0 {
			links[id] = struct{}{}
		}
	}
	sub2 := g.InducedByLinks(links)
	if err := sub2.Validate(); err != nil {
		t.Fatalf("link-induced subgraph invalid: %v", err)
	}
	if sub2.NumLinks() != len(links) {
		t.Fatalf("link-induced subgraph holds %d links, want %d", sub2.NumLinks(), len(links))
	}
}

// TestConcurrentShallowClonesOfSealedGraph: snapshotting a published
// (sealed) graph is a pure read — ShallowClone seals via EndBulk, which
// must not store to the bulk field when no window is open, or two
// concurrent snapshots would be a write-write race (-race enforced).
func TestConcurrentShallowClonesOfSealedGraph(t *testing.T) {
	g := bulkTestGraph(20, 10) // sealed by Builder.Graph()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := g.ShallowClone()
				if c.NumNodes() != g.NumNodes() {
					t.Error("snapshot lost nodes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBulkBuiltGraphSafeForConcurrentReaders: a graph built inside a bulk
// window and then sealed (Builder.Graph) must be freely readable from
// several goroutines — run under -race this proves sealing ends in-place
// mutation of anything readers can reach.
func TestBulkBuiltGraphSafeForConcurrentReaders(t *testing.T) {
	g := bulkTestGraph(50, 25) // Builder seals on Graph()
	snap := g.ShallowClone()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total := 0
			for _, id := range snap.NodeIDs() {
				total += snap.OutDegree(id) + snap.InDegree(id)
				for _, l := range snap.Out(id) {
					_ = l.Tgt
				}
			}
			_ = total
		}()
	}
	// A concurrent successor keeps mutating its own version.
	ids := IDSourceFor(g)
	w := g.ShallowClone()
	for i := 0; i < 50; i++ {
		if err := w.AddNode(NewNode(ids.NextNode(), TypeUser)); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}
