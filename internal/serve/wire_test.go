package serve

import (
	"context"
	"fmt"
	"math"
	"testing"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
)

// TestResponseNamesFromOneSnapshot: a body stamped with version v carries
// v's names, even when a batch renames what it shows between the query
// and the shaping. The batch renames the related topic (remove and re-add
// under a new name, the only way to replace a name: PutNode consolidation
// keeps a node's first value) and names the related user with a PutNode.
func TestResponseNamesFromOneSnapshot(t *testing.T) {
	b := graph.NewBuilder()
	searcher := b.Node([]string{graph.TypeUser}, "name", "ann")
	friend := b.Node([]string{graph.TypeUser}, "name", "bob")
	other := b.Node([]string{graph.TypeUser})
	topic := b.Node([]string{graph.TypeTopic}, "name", "old-topic")
	b.Link(searcher, friend, []string{graph.TypeConnect, graph.SubtypeFriend})
	for _, name := range []string{"zoo", "museum"} {
		item := b.Node([]string{graph.TypeItem, "destination"}, "name", name)
		b.Link(friend, item, []string{graph.TypeAct, graph.SubtypeVisit})
		b.Link(other, item, []string{graph.TypeAct, graph.SubtypeVisit})
		b.Link(item, topic, []string{graph.TypeBelong})
	}
	g := b.Graph()
	eng, err := socialscope.New(g, socialscope.Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	var q discovery.Query
	resp, err := eng.QueryCtx(context.Background(), searcher, q)
	if err != nil {
		t.Fatal(err)
	}

	renamed := g.Node(topic).Clone()
	renamed.Attrs.Set("name", "new-topic")
	var muts []graph.Mutation
	for _, l := range g.In(topic) {
		muts = append(muts, graph.Mutation{Kind: graph.MutRemoveLink, Link: l})
	}
	muts = append(muts,
		graph.Mutation{Kind: graph.MutRemoveNode, Node: g.Node(topic)},
		graph.Mutation{Kind: graph.MutAddNode, Node: renamed})
	for _, l := range g.In(topic) {
		muts = append(muts, graph.Mutation{Kind: graph.MutAddLink, Link: l})
	}
	muts = append(muts, graph.Mutation{Kind: graph.MutPutNode, Node: graph.NewNode(other, graph.TypeUser)})
	muts[len(muts)-1].Node.Attrs.Set("name", "jane")
	if err := eng.Apply(muts); err != nil {
		t.Fatal(err)
	}

	names := func(resp *socialscope.Response) (topicName, userName string) {
		t.Helper()
		out := SearchResponseFromEngine(eng, resp.Version, q, resp, nil)
		if len(out.Results) != 2 || len(out.Related.Topics) != 1 || len(out.Related.Users) != 1 ||
			out.Related.Topics[0].ID != topic || out.Related.Users[0].ID != other {
			t.Fatalf("version %d: results %+v related %+v", resp.Version, out.Results, out.Related)
		}
		return out.Related.Topics[0].Name, out.Related.Users[0].Name
	}
	if tn, un := names(resp); tn != "old-topic" || un != "" {
		t.Errorf("version %d body names topic %q and user %q, want %q and none", resp.Version, tn, un, "old-topic")
	}
	fresh, err := eng.QueryCtx(context.Background(), searcher, q)
	if err != nil {
		t.Fatal(err)
	}
	if tn, un := names(fresh); tn != "new-topic" || un != "jane" {
		t.Errorf("version %d body names topic %q and user %q, want %q and %q", fresh.Version, tn, un, "new-topic", "jane")
	}
}

// TestNormalizeQueryMatchesSprintf: the cache key NormalizeQuery appends
// is byte for byte the fmt form it replaced, which stays here as the
// oracle, over k, α and keyword and structural queries.
func TestNormalizeQueryMatchesSprintf(t *testing.T) {
	for _, text := range []string{
		"", "museum family", "Denver attractions", "type:destination",
		"family trip type:destination", "type:destination rating>=0.5 baseball",
		"rating<3 price>10.25 name:Denver",
	} {
		q, err := discovery.ParseQuery(text)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", text, err)
		}
		for _, k := range []int{0, 1, 10, 1000, -1} {
			for _, alpha := range []float64{0, 1e-7, 0.3, 0.5, 1, math.Copysign(0, -1), 1e21, math.Inf(1), math.NaN()} {
				q.K, q.Alpha = k, alpha
				want := fmt.Sprintf("%s|k=%d|a=%g", q.String(), q.K, q.Alpha)
				if got := NormalizeQuery(q); got != want {
					t.Errorf("NormalizeQuery(%q, k=%d, α=%g) = %q, want %q", text, k, alpha, got, want)
				}
			}
		}
	}
}
