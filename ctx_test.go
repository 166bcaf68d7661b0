package socialscope_test

import (
	"context"
	"errors"
	"testing"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// TestFacadeContextVariants verifies the context-aware facade entry
// points: an expired context aborts the evaluation with its error, and a
// live one answers through the index with its own stats.
func TestFacadeContextVariants(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 50, Destinations: 20, Seed: 4, VisitsPerUser: 6, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA,
	})
	if err != nil {
		t.Fatal(err)
	}
	user := corpus.Users[0]

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SearchCtx(cancelled, user, "museum"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx under cancelled context: %v, want context.Canceled", err)
	}
	if _, err := eng.RecommendCtx(cancelled, user, discovery.CFStepwise); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecommendCtx under cancelled context: %v, want context.Canceled", err)
	}

	resp, err := eng.SearchCtx(context.Background(), user, "museum hotel")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("index-backed response carries no per-evaluation stats")
	}
}

// TestApplyRejectsIntraBatchDuplicateAdds pins the duplicate-id guard:
// two additions of the same fresh id in one batch — the shape two
// concurrent writers produce when their requests are coalesced after
// both allocated from one max-id snapshot — must be rejected loudly
// (graph replay would silently consolidate the second while the index
// delta counted both), while add-after-remove of the same id stays
// legal.
func TestApplyRejectsIntraBatchDuplicateAdds(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 30, Destinations: 12, Seed: 6, VisitsPerUser: 5, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	id := corpus.Graph.MaxLinkID() + 1
	mk := func(tag string) *graph.Link {
		l := graph.NewLink(id, corpus.Users[0], corpus.Destinations[0], graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", tag)
		return l
	}
	v0 := eng.Version()
	err = eng.Apply([]socialscope.Mutation{
		{Kind: graph.MutAddLink, Link: mk("hotel")},
		{Kind: graph.MutAddLink, Link: mk("beach")},
	})
	if err == nil {
		t.Fatal("duplicate intra-batch add-link accepted")
	}
	if eng.Version() != v0 {
		t.Fatal("rejected batch bumped the version")
	}

	// Same node id: also rejected.
	nid := corpus.Graph.MaxNodeID() + 1
	err = eng.Apply([]socialscope.Mutation{
		{Kind: graph.MutAddNode, Node: graph.NewNode(nid, graph.TypeUser)},
		{Kind: graph.MutAddNode, Node: graph.NewNode(nid, graph.TypeUser)},
	})
	if err == nil {
		t.Fatal("duplicate intra-batch add-node accepted")
	}

	// Remove-then-re-add of a resident id remains a legal sequence.
	var resident *graph.Link
	for _, l := range corpus.Graph.Out(corpus.Users[0]) {
		if l.HasType(graph.TypeAct) {
			resident = l.Clone()
			break
		}
	}
	if resident == nil {
		t.Fatal("user 0 has no activity to remove")
	}
	if err := eng.Apply([]socialscope.Mutation{
		{Kind: graph.MutRemoveLink, Link: resident},
		{Kind: graph.MutAddLink, Link: resident.Clone()},
	}); err != nil {
		t.Fatalf("remove-then-re-add rejected: %v", err)
	}
}
