package presentation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// The oracle: ExplainCF as first written, walking every user of the graph
// and rebuilding each one's acted-item set per call. The item-side
// CFContext must reproduce it exactly.

func oracleExplainCF(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "cf"}
	friends := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Incident(user) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		other := l.Tgt
		if other == user {
			other = l.Src
		}
		friends.Add(other)
	}
	endorsingFriends := 0
	for _, other := range oracleSortedUsers(g) {
		if other == user {
			continue
		}
		if !oracleActedItems(g, other).Has(item) {
			continue
		}
		sim := oracleUserSim(g, user, other)
		if sim <= 0 {
			continue
		}
		ex.Users = append(ex.Users, WeightedID{other, sim * oracleRating(g, other, item)})
		if friends.Has(other) {
			endorsingFriends++
		}
	}
	sortWeighted(ex.Users)
	if friends.Len() > 0 {
		pct := 100 * endorsingFriends / friends.Len()
		ex.Summary = fmt.Sprintf("%d%% of your friends endorsed this item", pct)
	} else if len(ex.Users) > 0 {
		ex.Summary = fmt.Sprintf("%d similar users endorsed this item", len(ex.Users))
	} else {
		ex.Summary = "No social endorsement found for this item"
	}
	return ex
}

func oracleRating(g *graph.Graph, user, item graph.NodeID) float64 {
	for _, l := range g.Out(user) {
		if l.Tgt != item || !l.HasType(graph.TypeAct) {
			continue
		}
		if v, ok := l.Attrs().Float("rating"); ok {
			return v
		}
		return 1
	}
	return 0
}

func oracleUserSim(g *graph.Graph, a, b graph.NodeID) float64 {
	for _, l := range g.Incident(a) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		if l.Src == b || l.Tgt == b {
			return 1
		}
	}
	return scoring.Jaccard(oracleActedItems(g, a), oracleActedItems(g, b))
}

func oracleActedItems(g *graph.Graph, u graph.NodeID) scoring.Set[graph.NodeID] {
	s := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Out(u) {
		if l.HasType(graph.TypeAct) {
			s.Add(l.Tgt)
		}
	}
	return s
}

func oracleSortedUsers(g *graph.Graph) []graph.NodeID {
	users := g.NodesOfType(graph.TypeUser)
	out := make([]graph.NodeID, len(users))
	for i, u := range users {
		out[i] = u.ID
	}
	return out
}

// oracleExplainGroupCF is ExplainGroup's "cf" strategy over the oracle.
func oracleExplainGroupCF(g *graph.Graph, user graph.NodeID, group Group) Explanation {
	agg := Explanation{Strategy: "cf"}
	userW := map[graph.NodeID]float64{}
	for _, it := range group.Items {
		for _, w := range oracleExplainCF(g, user, it).Users {
			userW[w.ID] += w.Weight
		}
	}
	for id, w := range userW {
		agg.Users = append(agg.Users, WeightedID{id, w})
	}
	sortWeighted(agg.Users)
	if len(agg.Users) > 0 {
		agg.Summary = fmt.Sprintf("Group %q is endorsed by %d related users", group.Label, len(agg.Users))
	} else {
		agg.Summary = fmt.Sprintf("Group %q has no social provenance", group.Label)
	}
	return agg
}

// randomCFGraph builds a seeded site with every shape the explanation must
// survive: repeat act links by one user onto one item with different
// ratings, rated-but-untagged acts, unparseable ratings, act links from
// non-user nodes, non-act links onto items, connect links in both
// directions and connect self-loops. Item names share words, so content
// similarity is sometimes positive.
func randomCFGraph(rng *rand.Rand) (g *graph.Graph, users, items []graph.NodeID) {
	b := graph.NewBuilder()
	for i := 0; i < 4+rng.Intn(20); i++ {
		users = append(users, b.Node([]string{graph.TypeUser}))
	}
	words := []string{"museum", "family", "park", "harbor", "museum park", "opera"}
	for i := 0; i < 2+rng.Intn(10); i++ {
		items = append(items, b.Node([]string{graph.TypeItem, "destination"}, "name", words[rng.Intn(len(words))]))
	}
	var others []graph.NodeID
	for i := 0; i < rng.Intn(4); i++ {
		others = append(others, b.Node([]string{graph.TypeTopic}))
	}
	pick := func(ids []graph.NodeID) graph.NodeID { return ids[rng.Intn(len(ids))] }
	ratings := []string{"0.5", "0.8", "2", "-1", "0", "junk"}
	for i := 0; i < rng.Intn(3*len(users)); i++ {
		a, c := pick(users), pick(users)
		if rng.Intn(8) == 0 {
			c = a // self-loop
		}
		b.Link(a, c, []string{graph.TypeConnect, graph.SubtypeFriend})
	}
	for i := 0; i < rng.Intn(5*len(users)); i++ {
		u, it := pick(users), pick(items)
		switch rng.Intn(5) {
		case 0: // tagged
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
		case 1: // rated but untagged
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeReview}, "rating", ratings[rng.Intn(len(ratings))])
		case 2: // the same user again, with a different rating
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeReview}, "rating", ratings[rng.Intn(len(ratings))])
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeRating}, "rating", ratings[rng.Intn(len(ratings))])
		case 3: // an unrated visit
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeVisit})
		case 4: // not an act at all
			b.Link(u, it, []string{graph.TypeMatch})
		}
	}
	if len(others) > 0 {
		for i := 0; i < rng.Intn(2*len(items)); i++ {
			b.Link(pick(others), pick(items), []string{graph.TypeAct, graph.SubtypeTag}, "rating", "0.5")
		}
	}
	return b.Graph(), users, items
}

// TestExplainCFMatchesAllUsersOracle: on seeded random graphs, every
// (searcher, item) explanation — through the ExplainCF wrapper and through
// one CFContext shared by all of a searcher's items, as QueryCtx shares it —
// and every group explanation equals the all-users oracle exactly.
func TestExplainCFMatchesAllUsersOracle(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, users, items := randomCFGraph(rng)
		for _, u := range users {
			cf := NewCFContext(g, u)
			for _, it := range items {
				want := oracleExplainCF(g, u, it)
				if got := cf.Explain(it); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: CFContext(%d).Explain(%d) =\n%+v\nwant\n%+v", seed, u, it, got, want)
				}
				if got := ExplainCF(g, u, it); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: ExplainCF(%d, %d) =\n%+v\nwant\n%+v", seed, u, it, got, want)
				}
				if got := cf.Summary(it); got != want.Summary {
					t.Fatalf("seed %d: CFContext(%d).Summary(%d) = %q, want %q", seed, u, it, got, want.Summary)
				}
			}
			group := Group{Label: "g", Items: items[:1+rng.Intn(len(items))]}
			if got, want := ExplainGroup(g, u, group, "cf"), oracleExplainGroupCF(g, u, group); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ExplainGroup(%d) =\n%+v\nwant\n%+v", seed, u, got, want)
			}
		}
	}
}

// TestExplainCFEdgeCases pins each shape the random graphs mix, one at a
// time, against the oracle.
func TestExplainCFEdgeCases(t *testing.T) {
	b := graph.NewBuilder()
	u := b.Node([]string{graph.TypeUser})
	friend := b.Node([]string{graph.TypeUser})
	stranger := b.Node([]string{graph.TypeUser})
	topic := b.Node([]string{graph.TypeTopic})
	item := b.Node([]string{graph.TypeItem})
	past := b.Node([]string{graph.TypeItem})
	b.Link(u, u, []string{graph.TypeConnect, graph.SubtypeFriend})      // self-loop
	b.Link(friend, u, []string{graph.TypeConnect, graph.SubtypeFriend}) // inbound friendship
	b.Link(u, item, []string{graph.TypeAct, graph.SubtypeVisit})        // the searcher endorses too
	b.Link(u, past, []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(friend, item, []string{graph.TypeAct, graph.SubtypeReview}, "rating", "0.25") // rated, untagged
	b.Link(friend, item, []string{graph.TypeAct, graph.SubtypeReview}, "rating", "0.75") // repeat: lowest id wins
	b.Link(stranger, past, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	b.Link(stranger, item, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	b.Link(topic, item, []string{graph.TypeAct, graph.SubtypeTag}) // not a user
	g := b.Graph()

	got := ExplainCF(g, u, item)
	if want := oracleExplainCF(g, u, item); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExplainCF =\n%+v\nwant\n%+v", got, want)
	}
	want := []WeightedID{{stranger, 1}, {friend, 0.25}} // stranger: Jaccard {item,past} = 1
	if !reflect.DeepEqual(got.Users, want) {
		t.Errorf("users = %+v, want %+v", got.Users, want)
	}
	if got.Summary != "50% of your friends endorsed this item" { // friends = {u itself, friend}
		t.Errorf("summary = %q", got.Summary)
	}

	// One more input per shape Summary counts differently from the list.
	for _, c := range []struct {
		name  string
		build func(b *graph.Builder) (u, item graph.NodeID)
		want  string
	}{
		{"friendless searcher", func(b *graph.Builder) (graph.NodeID, graph.NodeID) {
			u, near, far := b.Node([]string{graph.TypeUser}), b.Node([]string{graph.TypeUser}), b.Node([]string{graph.TypeUser})
			item, past := b.Node([]string{graph.TypeItem}), b.Node([]string{graph.TypeItem})
			b.Link(u, past, []string{graph.TypeAct, graph.SubtypeVisit})
			b.Link(near, past, []string{graph.TypeAct, graph.SubtypeVisit}) // shares past with u
			b.Link(near, item, []string{graph.TypeAct, graph.SubtypeVisit})
			b.Link(far, item, []string{graph.TypeAct, graph.SubtypeVisit}) // shares nothing
			return u, item
		}, "1 similar users endorsed this item"},
		{"friends only a connect self-loop", func(b *graph.Builder) (graph.NodeID, graph.NodeID) {
			u, other := b.Node([]string{graph.TypeUser}), b.Node([]string{graph.TypeUser})
			item := b.Node([]string{graph.TypeItem})
			b.Link(u, u, []string{graph.TypeConnect, graph.SubtypeFriend})
			b.Link(u, item, []string{graph.TypeAct, graph.SubtypeVisit})
			b.Link(other, item, []string{graph.TypeAct, graph.SubtypeVisit})
			return u, item
		}, "0% of your friends endorsed this item"},
		{"non-user friend endorser", func(b *graph.Builder) (graph.NodeID, graph.NodeID) {
			u, friend := b.Node([]string{graph.TypeUser}), b.Node([]string{graph.TypeUser})
			topic, item := b.Node([]string{graph.TypeTopic}), b.Node([]string{graph.TypeItem})
			b.Link(u, topic, []string{graph.TypeConnect, graph.SubtypeFriend})
			b.Link(u, friend, []string{graph.TypeConnect, graph.SubtypeFriend})
			b.Link(topic, item, []string{graph.TypeAct, graph.SubtypeTag})
			b.Link(friend, item, []string{graph.TypeAct, graph.SubtypeTag})
			return u, item
		}, "50% of your friends endorsed this item"},
		{"searcher as sole endorser", func(b *graph.Builder) (graph.NodeID, graph.NodeID) {
			u, item := b.Node([]string{graph.TypeUser}), b.Node([]string{graph.TypeItem})
			b.Link(u, item, []string{graph.TypeAct, graph.SubtypeVisit})
			return u, item
		}, "No social endorsement found for this item"},
	} {
		b := graph.NewBuilder()
		u, item := c.build(b)
		g := b.Graph()
		want := oracleExplainCF(g, u, item)
		if got := ExplainCF(g, u, item); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ExplainCF =\n%+v\nwant\n%+v", c.name, got, want)
		}
		if got := NewCFContext(g, u).Summary(item); got != want.Summary || got != c.want {
			t.Errorf("%s: Summary = %q, oracle %q, want %q", c.name, got, want.Summary, c.want)
		}
	}
}
