package graph_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// linkIDs returns the ids of ls in order.
func linkIDs(ls []*graph.Link) []graph.LinkID {
	ids := make([]graph.LinkID, len(ls))
	for i, l := range ls {
		ids[i] = l.ID
	}
	return ids
}

// sameLoaded requires a checkpoint-loaded graph to be want: equal content
// and high-water marks, the same Range order in all four tries (so the
// same trie shapes), the same adjacency of every node, the same bytes
// when re-encoded, and no spare slot in any trie node or adjacency list.
func sameLoaded(t *testing.T, name string, got, want *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !got.Equal(want) || got.MaxNodeID() != want.MaxNodeID() || got.MaxLinkID() != want.MaxLinkID() {
		t.Fatalf("%s: loaded graph differs from the saved one", name)
	}
	gn, gl, gout, gin := graph.TrieOrders(got)
	wn, wl, wout, win := graph.TrieOrders(want)
	for _, c := range []struct {
		trie      string
		got, want any
	}{{"nodes", gn, wn}, {"links", gl, wl}, {"out", gout, wout}, {"in", gin, win}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s trie Range order differs", name, c.trie)
		}
	}
	for _, id := range want.NodeIDs() {
		if !reflect.DeepEqual(linkIDs(got.Out(id)), linkIDs(want.Out(id))) ||
			!reflect.DeepEqual(linkIDs(got.In(id)), linkIDs(want.In(id))) {
			t.Fatalf("%s: adjacency of %d differs", name, id)
		}
	}
	if !bytes.Equal(graph.NewCkptWriter().AppendCheckpoint(nil, got), graph.NewCkptWriter().AppendCheckpoint(nil, want)) {
		t.Fatalf("%s: re-encoding the loaded graph gives other checkpoint bytes", name)
	}
	if n := graph.SpareSlots(got); n != 0 {
		t.Fatalf("%s: the loaded graph holds %d spare slots", name, n)
	}
}

// sparseGraph adds nodes and links one write at a time, in shuffled order,
// with ids far apart, so a load numbers endpoints and orders links without
// the dense tables the ledger's ids allow.
func sparseGraph(t *testing.T) *graph.Graph {
	rng := rand.New(rand.NewSource(3))
	g := graph.New()
	var nodes []graph.NodeID
	for _, i := range rng.Perm(300) {
		id := graph.NodeID(1 + i*1_000_003)
		if err := g.AddNode(graph.NewNode(id, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, id)
	}
	for _, j := range rng.Perm(2000) {
		l := graph.NewLink(graph.LinkID(1+j*7_919_111), nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))],
			graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", "t"+string(rune('a'+j%7)))
		if err := g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestCheckpointLoadMatchesSaved is the load path's oracle: a graph
// loaded from its checkpoint, or from a chain ending in a delta, is the
// graph that was saved, down to trie shapes and adjacency order, and it
// is laid out exact-size.
func TestCheckpointLoadMatchesSaved(t *testing.T) {
	graphs := map[string]*graph.Graph{"sparse": sparseGraph(t), "empty": graph.New()}
	for name, cfg := range map[string]workload.TravelConfig{
		"ledger":   {Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42},
		"interest": {Users: 300, Destinations: 80, VisitsPerUser: 8, InterestBias: 0.7, Seed: 5},
	} {
		corpus, err := workload.Travel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = corpus.Graph
	}
	for name, saved := range graphs {
		w := graph.NewCkptWriter()
		full := w.AppendCheckpoint(nil, saved)
		loaded, err := graph.NewCkptReader().Apply(full)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameLoaded(t, name, loaded, saved)

		// A delta on top: a new node and links to it, a removed link.
		next := saved.ShallowClone()
		u := next.MaxNodeID() + 1
		if err := next.AddNode(graph.NewNode(u, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
		ids := saved.NodeIDs()
		for i := 0; i < 40 && len(ids) > 0; i++ {
			l := graph.NewLink(next.MaxLinkID()+1, u, ids[(i*37)%len(ids)], graph.TypeConnect, graph.SubtypeFriend)
			if err := next.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		if lids := saved.LinkIDs(); len(lids) > 0 {
			next.RemoveLink(lids[len(lids)/2])
		}
		delta := w.AppendCheckpoint(nil, next)
		r := graph.NewCkptReader()
		if err := r.Fold(full); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		chained, err := r.Apply(delta)
		if err != nil {
			t.Fatalf("%s delta: %v", name, err)
		}
		sameLoaded(t, name+" delta", chained, next)
	}
}
