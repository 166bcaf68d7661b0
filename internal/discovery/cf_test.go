package discovery

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// assertCFMatchesAlgebra checks the item-side plan against the algebra
// program it replaces: the same error, or the same []Recommendation down
// to the bits of every score.
func assertCFMatchesAlgebra(t *testing.T, g *graph.Graph, user graph.NodeID, cfg CFConfig) []Recommendation {
	t.Helper()
	want, werr := CollaborativeFilteringAlgebra(g, user, cfg)
	got, gerr := CollaborativeFiltering(g, user, cfg)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("user %d %+v: plan error %v, algebra error %v", user, cfg, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("user %d %+v:\nplan    %+v\nalgebra %+v", user, cfg, got, want)
	}
	return got
}

var (
	cfVariants   = []CFVariant{CFStepwise, CFPattern}
	cfThresholds = []float64{0.5, 0.2, 1.0 / 3}
)

// cfEdgeFixture packs the shapes the plan must read exactly as the
// algebra does. With s as the searcher, mine = {d1, d2, s}:
//
//   - a acts on {d1, s, d4}, with a duplicate onto d4: Jaccard exactly 1/2;
//   - b acts on {d1, d2, d3, c, b}, over a link also typed match and a
//     self-loop: Jaccard 1/3;
//   - c (a user that is also a destination) acts on {d1, d2, s, x, c}:
//     Jaccard 3/5, and recommends itself;
//   - grp is not a user, so its identical activity makes it no match;
//   - idle has no acts at all.
type cfEdgeFixture struct {
	g                     *graph.Graph
	s, a, b, c, grp, idle graph.NodeID
	d1, d2, d3, d4, x     graph.NodeID
}

func buildCFEdgeFixture() cfEdgeFixture {
	b := graph.NewBuilder()
	var f cfEdgeFixture
	user := []string{graph.TypeUser}
	dest := []string{graph.TypeItem, "destination"}
	f.s, f.a, f.b = b.Node(user), b.Node(user), b.Node(user)
	f.c = b.Node([]string{graph.TypeUser, "destination"})
	f.grp = b.Node([]string{graph.TypeGroup})
	f.idle = b.Node(user)
	f.d1, f.d2, f.d3, f.d4 = b.Node(dest), b.Node(dest), b.Node(dest), b.Node(dest)
	f.x = b.Node([]string{graph.TypeItem})

	visit := []string{graph.TypeAct, graph.SubtypeVisit}
	tagged := []string{graph.TypeAct, graph.SubtypeVisit, graph.SubtypeTag}
	matchTyped := []string{graph.TypeAct, graph.SubtypeVisit, graph.TypeMatch}
	friend := []string{graph.TypeConnect, graph.SubtypeFriend}

	b.Link(f.s, f.d1, visit)
	b.Link(f.s, f.d2, visit)
	b.Link(f.s, f.d2, tagged) // duplicate act onto one item
	b.Link(f.s, f.s, visit)
	b.Link(f.s, f.a, friend)

	b.Link(f.a, f.d1, visit)
	b.Link(f.a, f.s, visit) // an act onto a user
	b.Link(f.a, f.d4, visit)
	b.Link(f.a, f.d4, tagged)
	b.Link(f.a, f.d3, friend) // not an act

	b.Link(f.b, f.d1, matchTyped)
	b.Link(f.b, f.d2, visit)
	b.Link(f.b, f.d3, visit)
	b.Link(f.b, f.c, visit)
	b.Link(f.b, f.b, visit)

	b.Link(f.c, f.d1, visit)
	b.Link(f.c, f.d2, tagged)
	b.Link(f.c, f.s, visit)
	b.Link(f.c, f.x, visit) // an act onto a non-destination item
	b.Link(f.c, f.c, visit)

	b.Link(f.grp, f.d1, visit)
	b.Link(f.grp, f.d2, visit)
	b.Link(f.grp, f.s, visit)

	b.Link(f.idle, f.s, friend)
	f.g = b.Graph()
	return f
}

func TestCollaborativeFilteringPlanEdgeCases(t *testing.T) {
	f := buildCFEdgeFixture()
	for _, id := range f.g.NodeIDs() {
		for _, v := range cfVariants {
			for _, thr := range cfThresholds {
				assertCFMatchesAlgebra(t, f.g, id, CFConfig{Variant: v, SimThreshold: thr})
			}
		}
	}

	// A Jaccard equal to the threshold is not a match: a (exactly 1/2)
	// joins the basis only below 0.5.
	at := func(thr float64) []Recommendation {
		return assertCFMatchesAlgebra(t, f.g, f.s, CFConfig{SimThreshold: thr})
	}
	recs := at(0.5)
	if len(recs) == 0 || !reflect.DeepEqual(recs[0].Basis, []graph.NodeID{f.c}) {
		t.Fatalf("threshold 0.5: recs %+v, want basis [c]", recs)
	}
	items := map[graph.NodeID]float64{}
	for _, r := range recs {
		items[r.Item] = r.Score
	}
	if want := (map[graph.NodeID]float64{f.d1: 0.6, f.d2: 0.6, f.c: 0.6}); !reflect.DeepEqual(items, want) {
		t.Errorf("threshold 0.5: scores %v, want %v", items, want)
	}
	if recs := at(0.2); len(recs) == 0 || !reflect.DeepEqual(recs[0].Basis, []graph.NodeID{f.a, f.b, f.c}) {
		t.Errorf("threshold 0.2: recs %+v, want basis [a b c]", recs)
	}
	// No acts, no recommendations.
	if recs, err := CollaborativeFiltering(f.g, f.idle, CFConfig{}); err != nil || recs != nil {
		t.Errorf("idle user: recs %v, err %v", recs, err)
	}
}

func TestCollaborativeFilteringPlanErrors(t *testing.T) {
	f := buildCFEdgeFixture()
	for _, v := range cfVariants {
		assertCFMatchesAlgebra(t, f.g, 9999, CFConfig{Variant: v})
	}
	if _, err := CollaborativeFiltering(f.g, 9999, CFConfig{}); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: %v", err)
	}
	// The variant is rejected even for a user whose plan stops at step 1.
	for _, user := range []graph.NodeID{f.s, f.idle} {
		assertCFMatchesAlgebra(t, f.g, user, CFConfig{Variant: CFVariant(9)})
		if _, err := CollaborativeFiltering(f.g, user, CFConfig{Variant: CFVariant(9)}); err == nil {
			t.Errorf("user %d: unknown variant accepted", user)
		}
	}
}

// randomCFGraph draws a small graph whose type sets mix users, items,
// user-items and non-users, and whose links include duplicates,
// self-loops, non-acts and acts that also carry the algebra's own
// intermediate type name, match.
func randomCFGraph(rng *rand.Rand) *graph.Graph {
	nodeTypes := [][]string{
		{graph.TypeUser}, {graph.TypeUser}, {graph.TypeUser},
		{graph.TypeItem, "destination"}, {graph.TypeItem, "destination"},
		{graph.TypeUser, "destination"}, {graph.TypeItem}, {graph.TypeGroup},
	}
	linkTypes := [][]string{
		{graph.TypeAct, graph.SubtypeVisit}, {graph.TypeAct, graph.SubtypeVisit},
		{graph.TypeAct, graph.SubtypeVisit, graph.SubtypeTag},
		{graph.TypeAct, graph.SubtypeVisit, graph.TypeMatch},
		{graph.SubtypeVisit}, {graph.TypeAct, graph.SubtypeTag},
		{graph.TypeConnect, graph.SubtypeFriend}, {graph.TypeMatch},
	}
	b := graph.NewBuilder()
	n := 8 + rng.Intn(16)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = b.Node(nodeTypes[rng.Intn(len(nodeTypes))])
	}
	for m := n * (1 + rng.Intn(4)); m > 0; m-- {
		b.Link(ids[rng.Intn(n)], ids[rng.Intn(n)], linkTypes[rng.Intn(len(linkTypes))])
	}
	return b.Graph()
}

func TestCollaborativeFilteringPlanMatchesAlgebraRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	cases, nonEmpty := 0, 0
	for i := 0; i < seeds; i++ {
		g := randomCFGraph(rng)
		for _, id := range g.NodeIDs() {
			for _, v := range cfVariants {
				for _, thr := range cfThresholds {
					cases++
					if len(assertCFMatchesAlgebra(t, g, id, CFConfig{Variant: v, SimThreshold: thr})) > 0 {
						nonEmpty++
					}
				}
			}
		}
	}
	// Guard against a generator that stops producing matches.
	if nonEmpty*10 < cases {
		t.Errorf("only %d of %d cases recommend anything", nonEmpty, cases)
	}
}

// TestCollaborativeFilteringResultOutlivesScratch holds one user's result
// across calls for others that reuse the plan's pooled scratch: none of
// its memory, the shared Basis included, may be theirs to overwrite.
func TestCollaborativeFilteringResultOutlivesScratch(t *testing.T) {
	c, err := workload.Travel(workload.TravelConfig{Users: 40, Destinations: 25, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cfg := CFConfig{SimThreshold: 0.2, ItemType: "destination"}
	var users []graph.NodeID
	var want []Recommendation
	for _, u := range c.Users {
		recs, err := CollaborativeFilteringAlgebra(c.Graph, u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 0 && len(users) < 3 {
			users = append(users, u)
			if want == nil {
				want = recs
			}
		}
	}
	if len(users) < 3 {
		t.Fatalf("only %d users have recommendations", len(users))
	}
	held, err := CollaborativeFiltering(c.Graph, users[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[1:] {
		if _, err := CollaborativeFiltering(c.Graph, u, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("user %d's result changed under later calls:\nplan    %+v\nalgebra %+v", users[0], held, want)
	}
}
