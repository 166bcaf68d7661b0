package discovery

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/topk"
	"socialscope/internal/workload"
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

func taggedProcessor(t testing.TB, g *graph.Graph) *topk.Processor {
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
	if mg, err := assembleOracle(msg.Snapshot, msg.User, msg.Results); err != nil || !mg.HasNode(r.Item) {
		t.Errorf("MSG graph missing the result item (%v)", err)
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

// TestDiscoverTaggedMSGGraphBenchCorpus holds DiscoverTaggedCtx's MSG to
// the oracles on the bench/ ledger's corpus under tagged_cold's query
// shapes: TA ranks what Exhaustive ranks, and the subgraph
// assembleOracle builds from the MSG is valid.
func TestDiscoverTaggedMSGGraphBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Graph
	p := taggedProcessor(t, g)
	d := NewDiscoverer(g, "destination")
	rng := rand.New(rand.NewSource(30))
	nonEmpty := 0
	const draws = 60
	for c := 0; c < draws; c++ {
		user := corpus.Users[rng.Intn(len(corpus.Users))]
		cats := workload.Categories
		q := Query{Keywords: []string{cats[rng.Intn(len(cats))]}, K: []int{1, 10, 1000}[rng.Intn(3)]}
		if rng.Intn(2) == 0 {
			q.Keywords = append(q.Keywords, cats[rng.Intn(len(cats))])
		}
		got, _, err := d.DiscoverTaggedCtx(context.Background(), user, q, p, topk.TA)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := d.DiscoverTaggedCtx(context.Background(), user, q, p, topk.Exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("user %d %+v:\nTA         %+v\nExhaustive %+v", user, q, got.Results, want.Results)
		}
		assertMSGGraph(t, got, g)
		if len(got.Results) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty*2 < draws {
		t.Errorf("only %d of %d cases return results", nonEmpty, draws)
	}
}
