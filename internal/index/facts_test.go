package index

import (
	"slices"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// TestSubstrateAgreesWithGraphFacts pins how the substrate's Network and
// ItemsOf relate to the graph's Connections and Acts, the neighbourhood
// facts clustering, discovery and presentation read. Network(u) is
// Connections(u) restricted to users. ItemsOf(u) is the part of Acts(u)
// u reached by a tag link: an act target u only visited, rated or
// reviewed is in Acts(u) and not in ItemsOf(u).
func TestSubstrateAgreesWithGraphFacts(t *testing.T) {
	travel, err := workload.Travel(workload.TravelConfig{Users: 60, Destinations: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder()
	u1 := b.Node([]string{graph.TypeUser})
	u2 := b.Node([]string{graph.TypeUser})
	topic := b.Node([]string{graph.TypeTopic})
	rated := b.Node([]string{graph.TypeItem})
	tagged := b.Node([]string{graph.TypeItem})
	b.Link(u1, u1, []string{graph.TypeConnect, graph.SubtypeFriend}) // self-loop
	b.Link(u1, topic, []string{graph.TypeConnect})                   // onto a non-user
	b.Link(u2, u1, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(u2, rated, []string{graph.TypeAct, graph.SubtypeReview}, "rating", "0.5") // rated, untagged
	b.Link(u2, tagged, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	b.Link(u1, tagged, []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(u1, tagged, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")

	for name, g := range map[string]*graph.Graph{"travel": travel.Graph, "edge cases": b.Graph()} {
		d := Extract(g)
		isUser := func(v graph.NodeID) bool { return g.Node(v).HasType(graph.TypeUser) }
		disagree := 0
		for _, u := range d.Users {
			net := slices.DeleteFunc(g.Connections(u), func(v graph.NodeID) bool { return !isUser(v) })
			if got := d.Network.At(u); !slices.Equal(got, net) {
				t.Errorf("%s: Network(%d) = %v, users among Connections = %v", name, u, got, net)
			}
			var byTag []graph.NodeID
			for _, l := range g.Out(u) {
				if l.HasType(graph.SubtypeTag) && len(l.Attrs.All("tags")) > 0 {
					byTag = append(byTag, l.Tgt)
				}
			}
			acts, items := g.Acts(u), d.ItemsOf.At(u)
			for _, i := range items {
				if _, ok := slices.BinarySearch(acts, i); !ok {
					t.Errorf("%s: ItemsOf(%d) holds %d, which is not in Acts = %v", name, u, i, acts)
				}
			}
			untagged := false
			for _, i := range acts {
				_, inItems := slices.BinarySearch(items, i)
				if viaTag := slices.Contains(byTag, i); inItems != viaTag {
					t.Errorf("%s: act target %d of %d: in ItemsOf %v, reached by a tag link %v", name, i, u, inItems, viaTag)
				}
				untagged = untagged || !inItems
			}
			if untagged {
				disagree++
			}
		}
		if disagree == 0 {
			t.Errorf("%s: no user acts on an item without tagging it; the test pins nothing", name)
		}
	}
}
