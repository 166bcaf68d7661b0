package analyzer

import (
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// oracleDeriveMatches is DeriveMatches over map-set profiles: items(u)
// collected by one scan of every link (a link typed connect counts only as
// a connection), users ordered by an exchange sort, similarity by
// scoring.Jaccard. DeriveMatches must reproduce its links exactly, ids
// and sim values included, since Analyze is replayed from a payload-less
// WAL marker.
func oracleDeriveMatches(g *graph.Graph, threshold float64) *graph.Graph {
	items := make(map[graph.NodeID]scoring.Set[graph.NodeID])
	for _, u := range g.NodesOfType(graph.TypeUser) {
		items[u.ID] = scoring.NewSet[graph.NodeID]()
	}
	for _, l := range g.Links() {
		if l.HasType(graph.TypeConnect) {
			continue
		}
		if s, ok := items[l.Src]; ok && l.HasType(graph.TypeAct) {
			s.Add(l.Tgt)
		}
	}
	out := g.Clone()
	ids := graph.IDSourceFor(out)
	users := make([]graph.NodeID, 0, len(items))
	for id := range items {
		users = append(users, id)
	}
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			if users[i] > users[j] {
				users[i], users[j] = users[j], users[i]
			}
		}
	}
	for i, u := range users {
		for _, v := range users[i+1:] {
			sim := scoring.Jaccard(items[u], items[v])
			if sim < threshold || sim == 0 {
				continue
			}
			for _, pair := range [][2]graph.NodeID{{u, v}, {v, u}} {
				ml := graph.NewLink(ids.NextLink(), pair[0], pair[1], graph.TypeMatch)
				ml.SetAttrFloat("sim", sim)
				if err := out.AddLink(ml); err != nil {
					panic(err)
				}
			}
		}
	}
	return out
}

// randomSocialGraph is a small seeded graph with the shapes the
// neighbourhood derivations treat specially: connect self-loops, connect
// links onto topics, act links from topics, parallel act links and users
// with no activity.
func randomSocialGraph(seed int64) *graph.Graph {
	rng := newRand(seed)
	b := graph.NewBuilder()
	var users, others []graph.NodeID
	for i := 0; i < 4+rng.Intn(10); i++ {
		users = append(users, b.Node([]string{graph.TypeUser}))
	}
	for i := 0; i < 2+rng.Intn(8); i++ {
		others = append(others, b.Node([]string{graph.TypeItem}))
	}
	topic := b.Node([]string{graph.TypeTopic})
	others = append(others, topic)
	pick := func(ids []graph.NodeID) graph.NodeID { return ids[rng.Intn(len(ids))] }
	for i := rng.Intn(3 * len(users)); i > 0; i-- {
		switch rng.Intn(4) {
		case 0:
			u := pick(users)
			b.Link(u, u, []string{graph.TypeConnect, graph.SubtypeFriend})
		case 1:
			b.Link(pick(users), topic, []string{graph.TypeConnect})
		default:
			b.Link(pick(users), pick(users), []string{graph.TypeConnect, graph.SubtypeFriend})
		}
	}
	for i := rng.Intn(4 * len(users)); i > 0; i-- {
		src := pick(users)
		if rng.Intn(5) == 0 {
			src = topic
		}
		b.Link(src, pick(others), []string{graph.TypeAct, graph.SubtypeVisit})
	}
	return b.Graph()
}

func TestDeriveMatchesMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := randomSocialGraph(seed)
		for _, theta := range []float64{0, 0.2, 0.5, 1} {
			got, want := DeriveMatches(g, theta), oracleDeriveMatches(g, theta)
			// Equal, not DeepEqual: the oracle's deep Clone gives every
			// link a private body where the shallow clone shares them.
			if !got.Equal(want) {
				t.Fatalf("seed %d θ=%v: DeriveMatches links differ from the oracle's\ngot  %v\nwant %v",
					seed, theta, got.Links(), want.Links())
			}
		}
	}
}
