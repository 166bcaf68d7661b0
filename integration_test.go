package socialscope

import (
	"context"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/presentation"
	"socialscope/internal/workload"
)

// TestStoreBackedEngine exercises the full Content Management → Discovery
// → Presentation stack with durable storage underneath: generate a site,
// persist it through the durable engine's WAL and checkpoints, recover
// it, and run queries against the recovered graph.
func TestStoreBackedEngine(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{Users: 30, Destinations: 20, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	var muts []graph.Mutation
	for _, n := range corpus.Graph.Nodes() {
		muts = append(muts, graph.Mutation{Kind: graph.MutAddNode, Node: n.Clone()})
	}
	for _, l := range corpus.Graph.Links() {
		muts = append(muts, graph.Mutation{Kind: graph.MutAddLink, Link: l.Clone()})
	}

	dir := t.TempDir()
	cfg := Config{ItemType: "destination"}
	eng, err := OpenDurable(dir, nil, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover and serve.
	eng, err = OpenDurable(dir, nil, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Graph().Equal(corpus.Graph) {
		t.Fatal("recovered graph differs from the generated one")
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "attractions")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results()) == 0 {
		t.Error("no results from the recovered site")
	}
}

// TestHierarchicalPresentation drives the zoomable tree over real engine
// output — the Section 7.1 hierarchical presentation model end to end.
func TestHierarchicalPresentation(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{Users: 60, Destinations: 40, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "attractions")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results()) < 2 {
		t.Skip("corpus produced too few results to zoom")
	}
	items := make([]graph.NodeID, 0, len(resp.Results()))
	scores := map[graph.NodeID]float64{}
	for _, r := range resp.Results() {
		items = append(items, r.Item)
		scores[r.Item] = r.Score
	}
	tree, err := presentation.BuildTree(eng.Graph(), items, scores, presentation.OrganizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Root.Children) == 0 {
		t.Fatal("no top-level groups")
	}
	if err := tree.ZoomIn(tree.Root.Children[0].Group.Label); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() != 1 {
		t.Error("zoom depth wrong")
	}
	tree.ZoomOut()

	// Diversification keeps the head and reduces redundancy.
	div := presentation.Diversify(eng.Graph(), items, scores, 0.6, 5)
	if len(div) == 0 || len(div) > 5 {
		t.Errorf("diversified = %v", div)
	}
}

// TestAnalyzeThenIndexConsistency runs the Content Analyzer and §6.2 index
// over the same corpus: derived structures must not disturb index answers
// (topics and matches are new nodes/links the extractor ignores).
func TestAnalyzeThenIndexConsistency(t *testing.T) {
	corpus, err := workload.Tagging(workload.TaggingConfig{Users: 25, Items: 40, Tags: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: graph.TypeItem, Topics: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	// The enriched graph gained topic nodes and match links, but tagging
	// substrate extraction sees the same users/items/tags.
	before := extractCounts(t, corpus.Graph)
	after := extractCounts(t, eng.Graph())
	if before != after {
		t.Errorf("analysis disturbed the tagging substrate: %v vs %v", before, after)
	}
}

func extractCounts(t *testing.T, g *graph.Graph) [3]int {
	t.Helper()
	d := indexExtract(g)
	return [3]int{len(d.Users), len(d.Items), len(d.Tags)}
}

// indexExtract avoids importing internal/index at the top for one helper.
func indexExtract(g *graph.Graph) *index.Data { return index.Extract(g) }

// TestFusionRecoversPlantedInterests is the paper's central integration
// thesis as a regression test: on a homophilous corpus with planted
// interests, a general query answered with fused semantic+social relevance
// must beat keyword search alone by a wide margin (we require 3×; the
// reference run shows ~12×).
func TestFusionRecoversPlantedInterests(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 100, Destinations: 60, Seed: 42, VisitsPerUser: 8, InterestBias: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := discovery.NewDiscoverer(corpus.Graph, "destination")
	precision := func(alpha float64) float64 {
		var total float64
		n := 0
		for _, u := range corpus.Users[:40] {
			q, err := discovery.ParseQuery("attractions")
			if err != nil {
				t.Fatal(err)
			}
			q.Alpha = alpha
			q.K = 5
			msg, err := d.Discover(u, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Results) == 0 {
				continue
			}
			cat := corpus.Interests[u]
			hit := 0
			for _, r := range msg.Results {
				if corpus.Graph.Node(r.Item).Attrs.Get("category") == cat {
					hit++
				}
			}
			total += float64(hit) / float64(len(msg.Results))
			n++
		}
		if n == 0 {
			t.Fatal("no measurable users")
		}
		return total / float64(n)
	}
	searchOnly := precision(1.0)
	fused := precision(0.5)
	if fused < 3*searchOnly {
		t.Errorf("fusion P@5 %.3f should be ≥ 3× search-only %.3f", fused, searchOnly)
	}
}
