package discovery

import (
	"context"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/topk"
)

// taggedFixture builds a site whose tags are stored with mixed case, the
// way real graphs carry them.
func taggedFixture(t *testing.T) (*graph.Graph, []graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder()
	users := make([]graph.NodeID, 3)
	for i := range users {
		users[i] = b.Node([]string{graph.TypeUser}, "name", "u")
	}
	item := b.Node([]string{graph.TypeItem}, "name", "club")
	b.Link(users[0], users[1], []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(users[0], users[2], []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(users[1], item, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "Jazz")
	b.Link(users[2], item, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "Jazz")
	return b.Graph(), users
}

func taggedProcessor(t *testing.T, g *graph.Graph) *topk.Processor {
	t.Helper()
	cl, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(index.Extract(g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := topk.New(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDiscoverTaggedResolvesTagCase asserts tokenized (lowercased) query
// keywords reach tags the graph stores with different casing.
func TestDiscoverTaggedResolvesTagCase(t *testing.T) {
	g, users := taggedFixture(t)
	p := taggedProcessor(t, g)
	d := NewDiscoverer(g, "")
	q, err := ParseQuery("Jazz") // tokenizes to "jazz"
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Keywords) != 1 || q.Keywords[0] != "jazz" {
		t.Fatalf("keywords = %v, want [jazz]", q.Keywords)
	}
	msg, stats, err := d.DiscoverTaggedCtx(context.Background(), users[0], q, p, topk.TA)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Results) != 1 {
		t.Fatalf("results = %v, want the Jazz-tagged item", msg.Results)
	}
	r := msg.Results[0]
	if r.Score != 2 {
		t.Errorf("score = %v, want 2 (both friends tagged it)", r.Score)
	}
	if len(r.Endorsers) != 2 {
		t.Errorf("endorsers = %v, want both tagging friends", r.Endorsers)
	}
	if stats.PostingsScanned == 0 {
		t.Error("stats not populated")
	}
	if msg.Graph == nil || !msg.Graph.HasNode(r.Item) {
		t.Error("MSG graph missing the result item")
	}
}

func TestDiscoverTaggedErrors(t *testing.T) {
	g, users := taggedFixture(t)
	p := taggedProcessor(t, g)
	d := NewDiscoverer(g, "")
	if _, _, err := d.DiscoverTaggedCtx(context.Background(), users[0], Query{Keywords: []string{"jazz"}}, nil, topk.TA); err == nil {
		t.Error("nil processor accepted")
	}
	if _, _, err := d.DiscoverTaggedCtx(context.Background(), graph.NodeID(1<<40), Query{Keywords: []string{"jazz"}}, p, topk.TA); err == nil {
		t.Error("unknown user accepted")
	}
	if _, _, err := d.DiscoverTaggedCtx(context.Background(), users[0], Query{}, p, topk.TA); err == nil {
		t.Error("keyword-less query accepted")
	}
}
