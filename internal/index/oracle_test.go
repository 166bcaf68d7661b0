package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// buildTagListsOracle is the map-based construction of one tag's lists
// that Build's counter-table kernel replaced, kept as its reference: per
// item, a map of reverse-network counts and a map of per-cluster maxima,
// then each list sorted by descending score, ascending item id.
func buildTagListsOracle(data *Data, clustering *cluster.Clustering, f scoring.UserSetFn,
	tag string) map[int][]Entry {
	byItem := data.Taggers.At(tag)
	items := byItem.Keys()
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	lists := make(map[int][]Entry)
	for _, item := range items {
		taggers := byItem.At(item)
		counts := make(map[graph.NodeID]int)
		for _, tg := range taggers {
			for _, u := range data.Network.At(tg) {
				counts[u]++
			}
		}
		maxima := make(map[int]float64)
		for u, c := range counts {
			cid := clustering.Of(u)
			if cid < 0 {
				continue
			}
			if s := f(c); s > maxima[cid] {
				maxima[cid] = s
			}
		}
		for cid, ub := range maxima {
			if ub > 0 {
				lists[cid] = append(lists[cid], Entry{item, ub})
			}
		}
	}
	for cid := range lists {
		l := lists[cid]
		sort.Slice(l, func(i, j int) bool {
			if l[i].Score != l[j].Score {
				return l[i].Score > l[j].Score
			}
			return l[i].Item < l[j].Item
		})
	}
	return lists
}

// assertMatchesOracle holds every (tag, cluster) list of ix to the
// oracle's, and every stored list to its exact size.
func assertMatchesOracle(t *testing.T, ix *Index, what string) {
	t.Helper()
	d, cl, f := ix.Data(), ix.Clustering(), ix.UserFn()
	tags, entries := 0, 0
	for _, tag := range d.Tags {
		want := buildTagListsOracle(d, cl, f, tag)
		if len(want) > 0 {
			tags++
		}
		got := ix.lists.At(tag)
		if got.Len() != len(want) {
			t.Fatalf("%s: tag %q has %d lists, oracle %d", what, tag, got.Len(), len(want))
		}
		for cid, w := range want {
			l := got.At(cid)
			if !reflect.DeepEqual(l, w) {
				t.Fatalf("%s: list (%q, cluster %d) = %v, oracle %v", what, tag, cid, l, w)
			}
			if cap(l) != len(l) {
				t.Fatalf("%s: list (%q, cluster %d) has cap %d, len %d", what, tag, cid, cap(l), len(l))
			}
			entries += len(w)
		}
	}
	if ix.lists.Len() != tags || ix.EntryCount() != entries {
		t.Fatalf("%s: %d tags and %d entries stored, oracle %d and %d", what,
			ix.lists.Len(), ix.EntryCount(), tags, entries)
	}
}

// oracleFns are the per-keyword functions the oracle comparisons run:
// the two the system ships, and a thresholded count that scores a lone
// endorser 0, so a zero bound can arise and must be dropped.
var oracleFns = []struct {
	name string
	f    scoring.UserSetFn
}{
	{"count", scoring.CountF},
	{"logcount", scoring.LogCountF},
	{"atleast2", func(n int) float64 {
		if n < 2 {
			return 0
		}
		return float64(n)
	}},
}

var allStrategies = []cluster.Strategy{cluster.PerUser, cluster.NetworkBased,
	cluster.BehaviorBased, cluster.Hybrid, cluster.Global}

// TestBuildMatchesMapOracle holds Build's counter-table kernel to the
// map-based oracle: every strategy at three thresholds, under each
// oracle function, over the ledger's corpus, a dense one, seeded random
// graphs, a corpus of edge cases, and that corpus grown by users who
// joined after its clustering was made, so they have no cluster.
func TestBuildMatchesMapOracle(t *testing.T) {
	type corpus struct {
		g         *graph.Graph
		clusterOn *graph.Graph // the graph the clustering is made from
	}
	edge := oracleEdgeCases()
	corpora := map[string]corpus{
		"edge cases": {edge, edge},
		"late users": {withLateUsers(t, edge), edge},
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := randomTagGraph(seed, 14, 18, 4)
		corpora[fmt.Sprintf("random %d", seed)] = corpus{g, g}
	}
	if !testing.Short() {
		for name, cfg := range map[string]workload.TravelConfig{
			"ledger": ledgerCorpus,
			"dense":  {Users: 300, Destinations: 100, VisitsPerUser: 20, SmallWorldK: 20, Seed: 5},
		} {
			c, err := workload.Travel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			corpora[name] = corpus{c.Graph, c.Graph}
		}
	}
	for name, c := range corpora {
		d := Extract(c.g)
		for _, s := range allStrategies {
			for _, theta := range []float64{0, 0.1, 0.4} {
				cl, err := cluster.Build(c.clusterOn, s, theta)
				if err != nil {
					t.Fatal(err)
				}
				for _, fn := range oracleFns {
					ix, err := Build(d, cl, fn.f)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesOracle(t, ix, fmt.Sprintf("%s/%s/θ=%g/%s", name, s, theta, fn.name))
				}
			}
		}
	}
}

// withLateUsers returns g grown by two users who connect to three of g's
// users and tag a new item.
func withLateUsers(t *testing.T, g *graph.Graph) *graph.Graph {
	grown := g.ShallowClone()
	users := g.NodeIDs()[:3]
	item := grown.MaxNodeID() + 1
	if err := grown.AddNode(graph.NewNode(item, graph.TypeItem)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		late := grown.MaxNodeID() + 1
		if err := grown.AddNode(graph.NewNode(late, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
		for _, u := range users {
			addLink(t, grown, late, u, nil, graph.TypeConnect)
		}
		addLink(t, grown, late, item, []string{"tags", "a"}, graph.TypeAct, graph.SubtypeTag)
	}
	return grown
}

func addLink(t *testing.T, g *graph.Graph, src, tgt graph.NodeID, kv []string, types ...string) {
	t.Helper()
	l := graph.NewLink(g.MaxLinkID()+1, src, tgt, types...)
	for i := 0; i+1 < len(kv); i += 2 {
		l.AddAttr(kv[i], kv[i+1])
	}
	if err := g.AddLink(l); err != nil {
		t.Fatal(err)
	}
}

// oracleEdgeCases is a small corpus of what a build must get right beside
// the common case: taggers that are not users, connect self-loops and
// connects onto non-users, duplicate tag links, a tag on a single item,
// ties at equal bounds, and a user with no network.
func oracleEdgeCases() *graph.Graph {
	b := graph.NewBuilder()
	var users, items []graph.NodeID
	for i := 0; i < 7; i++ {
		users = append(users, b.Node([]string{graph.TypeUser}))
	}
	for i := 0; i < 5; i++ {
		items = append(items, b.Node([]string{graph.TypeItem}))
	}
	topic := b.Node([]string{graph.TypeTopic})
	friend := []string{graph.TypeConnect, graph.SubtypeFriend}
	tag := []string{graph.TypeAct, graph.SubtypeTag}
	for i := 0; i < 5; i++ { // a chain 0-1-2-3-4-5; user 6 knows no one
		b.Link(users[i], users[i+1], friend)
	}
	b.Link(users[0], users[2], friend)
	b.Link(users[1], users[1], friend)                   // self-loop
	b.Link(users[3], topic, []string{graph.TypeConnect}) // onto a non-user
	b.Link(users[3], users[4], friend)                   // parallel connection
	b.Link(topic, items[0], tag, "tags", "a")            // a tagger that is no user
	b.Link(items[1], items[0], tag, "tags", "a")
	b.Link(users[1], items[0], tag, "tags", "a")
	b.Link(users[1], items[0], tag, "tags", "a") // duplicate tag link
	b.Link(users[3], items[0], tag, "tags", "a")
	b.Link(users[2], items[1], tag, "tags", "a")
	b.Link(users[4], items[1], tag, "tags", "a")
	b.Link(users[0], items[2], tag, "tags", "a") // equal bounds, ordered by item
	b.Link(users[0], items[3], tag, "tags", "a")
	b.Link(users[5], items[4], tag, "tags", "b") // "b" on a single item
	b.Link(users[6], items[4], tag, "tags", "b")
	b.Link(topic, items[3], tag, "tags", "c") // "c" only from a non-user
	return b.Graph()
}
