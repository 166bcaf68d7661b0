package index

import (
	"fmt"
	"math/rand"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
)

// FuzzApplyDeltaMatchesRebuild decodes its input into one mutation batch
// over a small seeded corpus — tag and connect additions, link removals,
// recorded PutLink consolidations, node arrivals and bare node removals —
// and holds ApplyDelta over the pre-batch graph to the maintenance
// contract: lists and substrate equal a rebuild of the mutated graph.
//
// Each op is three bytes: kind, then two picks. A mutation the graph
// rejects at its point in the batch (an endpoint already removed) is
// dropped, so every batch replays cleanly.
func FuzzApplyDeltaMatchesRebuild(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 1, 2, 3})
	f.Add([]byte{1, 0, 1, 0, 1, 4, 2, 0, 0, 2, 1, 1})
	f.Add([]byte{0, 3, 3, 3, 0, 1, 2, 5, 0, 4, 1, 0})
	f.Add([]byte{1, 1, 2, 6, 0, 0, 0, 0, 5, 4, 2, 0, 4, 9, 0})
	f.Add([]byte{5, 1, 0, 1, 9, 2, 0, 9, 3, 4, 9, 0, 2, 7, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		c := newDiffCorpus(t, rand.New(rand.NewSource(3)), 6, 6, 3)
		strat := cluster.NetworkBased
		if len(in) > 0 && in[0]%2 == 1 {
			strat = cluster.PerUser
		}
		cl, err := cluster.Build(c.g, strat, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(Extract(c.g), cl, nil)
		if err != nil {
			t.Fatal(err)
		}
		post := c.g.ShallowClone()
		var muts []graph.Mutation
		for ops := 0; len(in) >= 3 && ops < 24; ops++ {
			m, ok := decodeMutation(post, c.tags, in[0], int(in[1]), int(in[2]))
			in = in[3:]
			if ok && post.Apply(m) == nil {
				muts = append(muts, m)
			}
		}
		ix = ix.ApplyDelta(c.g, muts)
		assertSorted(t, ix, "fuzz batch")
		rebuilt, err := Build(Extract(post), ix.Clustering(), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameLists(t, ix, rebuilt, "fuzz batch")
	})
}

// decodeMutation turns one fuzz op into a mutation over g's current nodes
// and links; ok is false when g has nothing the op could act on.
func decodeMutation(g *graph.Graph, tags []string, kind byte, a, b int) (graph.Mutation, bool) {
	nodes, links := g.NodeIDs(), g.LinkIDs()
	var users []graph.NodeID
	for _, id := range nodes {
		if g.Node(id).HasType(graph.TypeUser) {
			users = append(users, id)
		}
	}
	// One tag past the corpus vocabulary, so ops also grow it.
	tag := "fresh"
	if b%(len(tags)+1) < len(tags) {
		tag = tags[b%(len(tags)+1)]
	}
	switch kind % 6 {
	case 0: // a user tags any node
		if len(users) == 0 || len(nodes) == 0 {
			return graph.Mutation{}, false
		}
		l := graph.NewLink(g.MaxLinkID()+1, users[a%len(users)], nodes[b%len(nodes)], graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", tag)
		return graph.Mutation{Kind: graph.MutAddLink, Link: l}, true
	case 1: // a user connects to any node; only user pairs reach the network
		if len(users) == 0 || len(nodes) == 0 {
			return graph.Mutation{}, false
		}
		l := graph.NewLink(g.MaxLinkID()+1, users[a%len(users)], nodes[b%len(nodes)], graph.TypeConnect)
		return graph.Mutation{Kind: graph.MutAddLink, Link: l}, true
	case 2: // a link is retracted
		if len(links) == 0 {
			return graph.Mutation{}, false
		}
		return graph.Mutation{Kind: graph.MutRemoveLink, Link: g.Link(links[a%len(links)]).Clone()}, true
	case 3: // a tag link is consolidated with one more tag, as a recorder logs it
		if len(links) == 0 {
			return graph.Mutation{}, false
		}
		prev := g.Link(links[a%len(links)])
		if !prev.HasType(graph.SubtypeTag) {
			return graph.Mutation{}, false
		}
		merged := prev.Clone()
		merged.AddAttr("tags", tag)
		return graph.Mutation{Kind: graph.MutPutLink, Link: merged, Prev: prev.Clone()}, true
	case 4: // a node arrives
		typ := graph.TypeItem
		if b%2 == 0 {
			typ = graph.TypeUser
		}
		return graph.Mutation{Kind: graph.MutAddNode, Node: graph.NewNode(g.MaxNodeID()+1, typ)}, true
	default: // a node is removed bare, its links still standing
		if len(nodes) == 0 {
			return graph.Mutation{}, false
		}
		return graph.Mutation{Kind: graph.MutRemoveNode, Node: g.Node(nodes[a%len(nodes)]).Clone()}, true
	}
}

// FuzzBuildMatchesOracle decodes its input into a small graph and holds
// Build to the map-based oracle under every strategy. The first byte picks
// the threshold and the scoring function; each op after it is three
// bytes, a kind and two picks: a node arrives (a user or an item), a node
// connects to a node (only user pairs reach the network), a node tags a
// node, or the clustering is taken there, so users arriving after it have
// no cluster.
func FuzzBuildMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 1, 0, 1, 2, 0, 1, 2, 1, 0})
	f.Add([]byte{5, 0, 0, 0, 0, 2, 0, 0, 4, 0, 1, 1, 2, 1, 0, 3, 0, 0, 0, 6, 0, 1, 3, 2, 2, 3, 1})
	f.Add([]byte{7, 0, 1, 0, 0, 3, 0, 0, 5, 0, 1, 0, 0, 1, 1, 1, 2, 0, 1, 2, 1, 1, 2, 2, 2, 0, 2, 2, 1, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		theta := []float64{0, 0.1, 0.4}[in[0]%3]
		fn := oracleFns[int(in[0]/3)%len(oracleFns)]
		g := graph.New()
		var nodes []graph.NodeID
		var clusterOn *graph.Graph
		for in = in[1:]; len(in) >= 3 && len(nodes) < 64; in = in[3:] {
			a, b := int(in[1]), int(in[2])
			switch in[0] % 4 {
			case 0:
				typ := graph.TypeItem
				if b%2 == 0 {
					typ = graph.TypeUser
				}
				id := g.MaxNodeID() + 1
				if g.AddNode(graph.NewNode(id, typ)) == nil {
					nodes = append(nodes, id)
				}
			case 1:
				if len(nodes) > 0 {
					addLink(t, g, nodes[a%len(nodes)], nodes[b%len(nodes)], nil, graph.TypeConnect)
				}
			case 2:
				if len(nodes) > 0 {
					addLink(t, g, nodes[a%len(nodes)], nodes[b%len(nodes)],
						[]string{"tags", string(rune('a' + a%3))}, graph.TypeAct, graph.SubtypeTag)
				}
			default:
				if clusterOn == nil {
					clusterOn = g.ShallowClone()
				}
			}
		}
		if clusterOn == nil {
			clusterOn = g
		}
		d := Extract(g)
		for _, s := range allStrategies {
			cl, err := cluster.Build(clusterOn, s, theta)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(d, cl, fn.f)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesOracle(t, ix, fmt.Sprintf("%s/θ=%g/%s", s, theta, fn.name))
		}
	})
}
