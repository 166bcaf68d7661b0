package discovery

import (
	"context"
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/topk"
	"socialscope/internal/workload"
)

// TestDiscoverTaggedAcrossSnapshots pins the snapshot semantics of the
// tagged-discovery path: a processor over the old index version keeps
// answering from the old world after ApplyDelta produced a newer one, the
// new processor sees the update, and each reports its own snapshot
// version in the stats.
func TestDiscoverTaggedAcrossSnapshots(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 40, Destinations: 25, Seed: 13, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Graph
	cl, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	oldIx, err := index.Build(index.Extract(g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldProc, err := topk.New(oldIx, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDiscoverer(g, "destination")
	user := corpus.Users[0]
	q, err := ParseQuery(workload.Categories[0])
	if err != nil {
		t.Fatal(err)
	}
	q.K = len(corpus.Destinations) // the endorsed item must not fall off the top k

	before, st, err := d.DiscoverTaggedCtx(context.Background(), user, q, oldProc, topk.TA)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotVersion != 0 {
		t.Fatalf("fresh build reports snapshot %d, want 0", st.SnapshotVersion)
	}

	// A friend of the user endorses a destination with the query tag.
	friends := index.Extract(g).Network.At(user)
	if len(friends) == 0 {
		t.Fatal("test user has no network")
	}
	friend := friends[0]
	l := graph.NewLink(g.MaxLinkID()+1, friend, corpus.Destinations[0], graph.TypeAct, graph.SubtypeTag)
	l.AddAttr("tags", workload.Categories[0])
	newIx := oldIx.ApplyDelta(g, []graph.Mutation{{Kind: graph.MutAddLink, Link: l}})
	newProc, err := topk.New(newIx, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The old processor is oblivious to the update.
	again, st, err := d.DiscoverTaggedCtx(context.Background(), user, q, oldProc, topk.TA)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotVersion != 0 {
		t.Errorf("old processor reports snapshot %d after delta, want 0", st.SnapshotVersion)
	}
	if !reflect.DeepEqual(before.Results, again.Results) {
		t.Errorf("old snapshot's answers changed after ApplyDelta\n got %v\nwant %v",
			again.Results, before.Results)
	}

	// The new processor sees the endorsement and credits the endorser.
	after, st, err := d.DiscoverTaggedCtx(context.Background(), user, q, newProc, topk.TA)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotVersion != 1 {
		t.Errorf("new processor reports snapshot %d, want 1", st.SnapshotVersion)
	}
	found := false
	for _, r := range after.Results {
		if r.Item != corpus.Destinations[0] {
			continue
		}
		found = true
		credited := false
		for _, e := range r.Endorsers {
			if e == friend {
				credited = true
			}
		}
		if !credited {
			t.Errorf("endorsement by %d not credited: %v", friend, r.Endorsers)
		}
	}
	if !found {
		t.Errorf("endorsed destination %d missing from new snapshot's results: %v",
			corpus.Destinations[0], after.Results)
	}
}
