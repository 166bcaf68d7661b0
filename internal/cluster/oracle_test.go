package cluster

import (
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// profile is a user's network(u) and items(u) as map-sets.
type profile struct {
	network, items scoring.Set[graph.NodeID]
}

// profilesByScan collects every user's profile by one scan of every link:
// a connect link joins each user endpoint's network, any other act link
// joins its user source's items.
func profilesByScan(g *graph.Graph) map[graph.NodeID]*profile {
	ps := make(map[graph.NodeID]*profile)
	for _, u := range g.NodesOfType(graph.TypeUser) {
		ps[u.ID] = &profile{scoring.NewSet[graph.NodeID](), scoring.NewSet[graph.NodeID]()}
	}
	for _, l := range g.Links() {
		switch {
		case l.HasType(graph.TypeConnect):
			if p, ok := ps[l.Src]; ok {
				p.network.Add(l.Tgt)
			}
			if p, ok := ps[l.Tgt]; ok {
				p.network.Add(l.Src)
			}
		case l.HasType(graph.TypeAct):
			if p, ok := ps[l.Src]; ok {
				p.items.Add(l.Tgt)
			}
		}
	}
	return ps
}

// oracleBuild is leader clustering under Definitions 11 to 13 evaluated on
// map-set profiles; a node without a profile has an empty one.
func oracleBuild(g *graph.Graph, strategy Strategy, theta float64) *Clustering {
	ps := profilesByScan(g)
	prof := func(u graph.NodeID) *profile {
		if p := ps[u]; p != nil {
			return p
		}
		return &profile{scoring.NewSet[graph.NodeID](), scoring.NewSet[graph.NodeID]()}
	}
	pred := func(a, b graph.NodeID) bool {
		switch strategy {
		case NetworkBased:
			return scoring.Jaccard(prof(a).network, prof(b).network) >= theta
		case BehaviorBased:
			return scoring.Jaccard(prof(a).items, prof(b).items) >= theta
		}
		na, nb := prof(a).network, prof(b).network
		if na.Len() == 0 || nb.Len() == 0 {
			return false
		}
		for v1 := range na {
			for v2 := range nb {
				if scoring.Jaccard(prof(v1).items, prof(v2).items) < theta {
					return false
				}
			}
		}
		return true
	}
	c := &Clustering{Strategy: strategy, Theta: theta, byUser: make(map[graph.NodeID]int)}
	for _, n := range g.NodesOfType(graph.TypeUser) {
		u, id := n.ID, len(c.Clusters)
		for i := range c.Clusters {
			if pred(c.Clusters[i].Leader, u) {
				id = i
				break
			}
		}
		if id == len(c.Clusters) {
			c.Clusters = append(c.Clusters, Cluster{ID: id, Leader: u})
		}
		c.Clusters[id].Members = append(c.Clusters[id].Members, u)
		c.byUser[u] = id
	}
	return c
}

// randomSocialGraph is a small seeded graph with the shapes network(u) and
// items(u) treat specially: connect self-loops, connect links onto topics,
// act links from topics, parallel links and users with no links.
func randomSocialGraph(seed int64) *graph.Graph {
	rng := newRand(seed)
	b := graph.NewBuilder()
	var users, items []graph.NodeID
	for i := 0; i < 4+rng.Intn(10); i++ {
		users = append(users, b.Node([]string{graph.TypeUser}))
	}
	for i := 0; i < 2+rng.Intn(6); i++ {
		items = append(items, b.Node([]string{graph.TypeItem}))
	}
	topic := b.Node([]string{graph.TypeTopic})
	pick := func(ids []graph.NodeID) graph.NodeID { return ids[rng.Intn(len(ids))] }
	for i := rng.Intn(3 * len(users)); i > 0; i-- {
		switch rng.Intn(5) {
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
		b.Link(src, pick(items), []string{graph.TypeAct, graph.SubtypeTag}, "tags", "t")
	}
	return b.Graph()
}

// TestBuildMatchesProfileOracle holds Build, which reads network(u) and
// items(u) off the graph, to the map-set profile predicate on seeded graphs.
func TestBuildMatchesProfileOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := randomSocialGraph(seed)
		for _, s := range []Strategy{NetworkBased, BehaviorBased, Hybrid} {
			for _, theta := range []float64{0, 0.2, 1.0 / 3, 0.5, 1} {
				got, err := Build(g, s, theta)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleBuild(g, s, theta); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s θ=%v:\ngot  %+v\nwant %+v", seed, s, theta, got.Clusters, want.Clusters)
				}
			}
		}
	}
}
