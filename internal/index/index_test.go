package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// tagFixture builds a del.icio.us-style graph:
//
//	users 1..4; friendships 1-2, 1-3, 2-3, 3-4
//	items 11..13
//	tags: u2 tags 11 'go', u3 tags 11 'go' and 12 'go db', u4 tags 13 'db'
//
// For u1 (network {2,3}): score_go(11) = |{2,3}| = 2, score_go(12) = 1,
// score_db(12) = 1, everything else 0.
func tagFixture(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	users := make([]graph.NodeID, 5)
	for i := 1; i <= 4; i++ {
		users[i] = b.NodeWithID(graph.NodeID(i), []string{graph.TypeUser})
	}
	items := map[int]graph.NodeID{}
	for i := 11; i <= 13; i++ {
		items[i] = b.NodeWithID(graph.NodeID(i), []string{graph.TypeItem})
	}
	b.Link(1, 2, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(1, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 3, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(3, 4, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 11, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go")
	b.Link(3, 12, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "go", "tags", "db")
	b.Link(4, 13, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "db")
	return b.Graph()
}

func TestExtract(t *testing.T) {
	d := Extract(tagFixture(t))
	if len(d.Users) != 4 || len(d.Items) != 3 {
		t.Fatalf("users=%v items=%v", d.Users, d.Items)
	}
	if !reflect.DeepEqual(d.Tags, []string{"db", "go"}) {
		t.Fatalf("tags = %v", d.Tags)
	}
	if got := d.Taggers.At("go").At(11); !reflect.DeepEqual(got, []graph.NodeID{2, 3}) {
		t.Errorf("taggers(11,go) = %v, want [2 3]", got)
	}
	if got := d.Network.At(1); !reflect.DeepEqual(got, []graph.NodeID{2, 3}) {
		t.Errorf("network(1) = %v, want [2 3]", got)
	}
	if got := d.Network.At(3); !reflect.DeepEqual(got, []graph.NodeID{1, 2, 4}) {
		t.Errorf("network(3) = %v, want [1 2 4]: the network is symmetric", got)
	}
}

func TestExactScores(t *testing.T) {
	d := Extract(tagFixture(t))
	cases := []struct {
		item graph.NodeID
		user graph.NodeID
		tag  string
		want float64
	}{
		{11, 1, "go", 2}, // friends 2 and 3 tagged 11 'go'
		{12, 1, "go", 1},
		{12, 1, "db", 1},
		{13, 1, "db", 0}, // tagger 4 not in u1's network
		{11, 4, "go", 1}, // u4's network {3}; 3 tagged 11
		{11, 1, "nosuch", 0},
		{99, 1, "go", 0},
	}
	for _, c := range cases {
		if got := d.ScoreTag(c.item, c.user, c.tag, scoring.CountF); got != c.want {
			t.Errorf("score_%s(%d,%d) = %f, want %f", c.tag, c.item, c.user, got, c.want)
		}
	}
	// Combined: score(12, u1, {go,db}) = 1+1 = 2.
	if got := d.Score(12, 1, []string{"go", "db"}, scoring.CountF, scoring.SumG); got != 2 {
		t.Errorf("combined score = %f", got)
	}
}

func TestExactTopK(t *testing.T) {
	d := Extract(tagFixture(t))
	top := d.ExactTopK(1, []string{"go", "db"}, 2, scoring.CountF, scoring.SumG)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// 11: 2 (go), 12: 1+1 = 2 — tie broken by item id: 11 first.
	if top[0].Item != 11 || top[1].Item != 12 || top[0].Score != 2 || top[1].Score != 2 {
		t.Errorf("top = %v", top)
	}
}

func buildIndex(t testing.TB, g *graph.Graph, s cluster.Strategy, theta float64) (*Data, *Index) {
	t.Helper()
	d := Extract(g)
	c, err := cluster.Build(g, s, theta)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, c, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	return d, ix
}

func TestPerUserIndexStoresExactScores(t *testing.T) {
	d, ix := buildIndex(t, tagFixture(t), cluster.PerUser, 0)
	if ix.List(999, "go") != nil {
		t.Error("unknown user List should be nil")
	}
	for _, u := range d.Users {
		for _, tag := range d.Tags {
			for _, e := range ix.List(u, tag) {
				if exact := d.ScoreTag(e.Item, u, tag, scoring.CountF); e.Score != exact {
					t.Errorf("peruser list score (%d,%s,%d) = %f, exact %f",
						u, tag, e.Item, e.Score, exact)
				}
			}
		}
	}
}

func TestClusterUpperBoundAdmissible(t *testing.T) {
	for _, s := range []cluster.Strategy{NetworkStrategy(), cluster.BehaviorBased, cluster.Global} {
		d, ix := buildIndex(t, tagFixture(t), s, 0.3)
		for _, u := range d.Users {
			for _, tag := range d.Tags {
				// Stored score must dominate the user's exact score for
				// every item in the user's cluster list.
				listed := map[graph.NodeID]float64{}
				for _, e := range ix.List(u, tag) {
					listed[e.Item] = e.Score
				}
				for _, item := range d.Items {
					exact := d.ScoreTag(item, u, tag, scoring.CountF)
					if exact <= 0 {
						continue
					}
					ub, ok := listed[item]
					if !ok {
						t.Fatalf("%s: item %d with positive score missing from list (%d,%s)",
							s, item, u, tag)
					}
					if ub < exact {
						t.Errorf("%s: ub %f < exact %f for (%d,%s,%d)", s, ub, exact, u, tag, item)
					}
				}
			}
		}
	}
}

// NetworkStrategy is a tiny indirection so the test table reads naturally.
func NetworkStrategy() cluster.Strategy { return cluster.NetworkBased }

func TestIndexSizeOrdering(t *testing.T) {
	// Per-user indexes are at least as large as behavior-based clustered
	// ones, which are at least as large as the global index (the Section
	// 6.2 trade-off).
	g := tagFixture(t)
	_, per := buildIndex(t, g, cluster.PerUser, 0)
	_, beh := buildIndex(t, g, cluster.BehaviorBased, 0.3)
	_, glob := buildIndex(t, g, cluster.Global, 0)
	if per.EntryCount() < beh.EntryCount() || beh.EntryCount() < glob.EntryCount() {
		t.Errorf("size ordering violated: per=%d behavior=%d global=%d",
			per.EntryCount(), beh.EntryCount(), glob.EntryCount())
	}
	if per.SizeBytes() != int64(per.EntryCount())*EntryBytes {
		t.Error("SizeBytes inconsistent with EntryCount")
	}
	r := per.Report()
	if r.Entries != per.EntryCount() || r.Strategy != cluster.PerUser {
		t.Errorf("report = %+v", r)
	}
	if per.NumLists() == 0 || per.Strategy() != cluster.PerUser {
		t.Error("NumLists/Strategy accessors broken")
	}
}

// randomTagGraph generates a random tagging site.
func randomTagGraph(seed int64, nUsers, nItems, nTags int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	users := make([]graph.NodeID, nUsers)
	for i := range users {
		users[i] = b.Node([]string{graph.TypeUser})
	}
	items := make([]graph.NodeID, nItems)
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem})
	}
	tags := make([]string, nTags)
	for i := range tags {
		tags[i] = string(rune('a' + i))
	}
	for i, u := range users {
		for j := i + 1; j < len(users); j++ {
			if rng.Intn(3) == 0 {
				b.Link(u, users[j], []string{graph.TypeConnect, graph.SubtypeFriend})
			}
		}
		for _, it := range items {
			if rng.Intn(3) == 0 {
				b.Link(u, it, []string{graph.TypeAct, graph.SubtypeTag},
					"tags", tags[rng.Intn(nTags)])
			}
		}
	}
	return b.Graph()
}

// Property: entry counts never increase as clustering coarsens from
// per-user through behavior-based to global.
func TestQuickSizeMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		g := randomTagGraph(seed, 8, 10, 3)
		d := Extract(g)
		sizes := make([]int, 0, 3)
		for _, s := range []cluster.Strategy{cluster.PerUser, cluster.BehaviorBased, cluster.Global} {
			c, err := cluster.Build(g, s, 0.4)
			if err != nil {
				return false
			}
			ix, err := Build(d, c, scoring.CountF)
			if err != nil {
				return false
			}
			sizes = append(sizes, ix.EntryCount())
		}
		return sizes[0] >= sizes[1] && sizes[1] >= sizes[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
