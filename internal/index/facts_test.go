package index

import (
	"cmp"
	"slices"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// TestSubstrateAgreesWithGraphFacts pins how the substrate relates to the
// graph it was extracted from. Network(u) is Connections(u) restricted to
// users. The (item, tag) pairs u holds in Taggers are exactly the pairs on
// u's tag links: the contract ApplyDelta relies on when it reads a user's
// taggings from the pre-batch graph. An act target u only visited, rated or
// reviewed is in Acts(u) and in none of those pairs.
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
			var held, onLinks []itemTag
			d.Taggers.Range(func(tag string, byItem ItemTaggers) bool {
				byItem.Range(func(item graph.NodeID, taggers []graph.NodeID) bool {
					if has(taggers, u) {
						held = append(held, itemTag{item, tag})
					}
					return true
				})
				return true
			})
			for _, l := range g.Out(u) {
				if l.HasType(graph.SubtypeTag) {
					for _, tag := range l.Attrs().All("tags") {
						onLinks = append(onLinks, itemTag{l.Tgt, tag})
					}
				}
			}
			held, onLinks = sortedPairs(held), sortedPairs(onLinks)
			if !slices.Equal(held, onLinks) {
				t.Errorf("%s: user %d holds (item, tag) pairs %v, its tag links assert %v", name, u, held, onLinks)
			}
			for _, i := range g.Acts(u) {
				if !slices.ContainsFunc(onLinks, func(p itemTag) bool { return p.item == i }) {
					disagree++
					break
				}
			}
		}
		if disagree == 0 {
			t.Errorf("%s: no user acts on an item without tagging it; the test pins nothing", name)
		}
	}
}

type itemTag struct {
	item graph.NodeID
	tag  string
}

// sortedPairs sorts ps by item, then tag, without repeats.
func sortedPairs(ps []itemTag) []itemTag {
	slices.SortFunc(ps, func(a, b itemTag) int {
		return cmp.Or(cmp.Compare(a.item, b.item), cmp.Compare(a.tag, b.tag))
	})
	return slices.Compact(ps)
}
