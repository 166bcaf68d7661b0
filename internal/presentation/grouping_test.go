package presentation

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// The oracles: social grouping and the content-based explanation as first
// written, over per-call sets — taggers(i) rebuilt from the item's
// in-links, Items(u) from the user's out-links. The versions reading the
// graph's neighbourhood view must reproduce them exactly.

func oracleTaggers(g *graph.Graph, item graph.NodeID) scoring.Set[graph.NodeID] {
	s := scoring.NewSet[graph.NodeID]()
	for _, l := range g.In(item) {
		if l.HasType(graph.TypeAct) {
			s.Add(l.Src)
		}
	}
	return s
}

func oracleSocialGrouping(g *graph.Graph, items []graph.NodeID, scores map[graph.NodeID]float64, theta float64) Grouping {
	tagSets := make(map[graph.NodeID]scoring.Set[graph.NodeID], len(items))
	for _, it := range items {
		tagSets[it] = oracleTaggers(g, it)
	}
	var groups []Group
	var leaders []graph.NodeID
	for _, it := range sortedIDs(items) {
		placed := false
		for gi, leader := range leaders {
			if scoring.Jaccard(tagSets[leader], tagSets[it]) >= theta {
				groups[gi].Items = append(groups[gi].Items, it)
				placed = true
				break
			}
		}
		if !placed {
			leaders = append(leaders, it)
			groups = append(groups, Group{Label: labelFor(g, it), Items: []graph.NodeID{it}})
		}
	}
	finishGroups(groups, scores)
	return Grouping{Criterion: "social", Groups: groups}
}

// oracleOrganize is Organize with the oracle's social grouping.
func oracleOrganize(g *graph.Graph, items []graph.NodeID, scores map[graph.NodeID]float64, cfg OrganizeConfig) Presentation {
	cfg.fill()
	candidates := []Grouping{
		oracleSocialGrouping(g, items, scores, cfg.SocialTheta),
		TopicalGrouping(g, items, scores),
		StructuralGrouping(g, items, scores, cfg.FacetAttr),
	}
	best, bestScore := 0, -1.0
	for i, c := range candidates {
		if s := Meaningfulness(c, cfg); s > bestScore {
			best, bestScore = i, s
		}
	}
	var alts []Grouping
	for i, c := range candidates {
		if i != best {
			alts = append(alts, c)
		}
	}
	return Presentation{Chosen: capGroups(candidates[best], cfg.MaxGroups), Score: bestScore, Alternatives: alts}
}

func oracleExplainContent(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "content"}
	var totalPast int
	for _, p := range scoring.SortedInts(oracleActedItems(g, user)) {
		if p == item {
			continue
		}
		totalPast++
		if sim := itemSim(g, item, p); sim > 0 {
			ex.Items = append(ex.Items, WeightedID{p, sim * oracleRating(g, user, p)})
		}
	}
	sortWeighted(ex.Items)
	if totalPast > 0 {
		ex.Summary = fmt.Sprintf("This item is similar to %d%% of items you visited before", 100*len(ex.Items)/totalPast)
	} else {
		ex.Summary = "You have no past activity to relate this item to"
	}
	return ex
}

// randomGroupingCase is randomCFGraph plus items nobody acted on, and
// scores with ties.
func randomGroupingCase(rng *rand.Rand) (*graph.Graph, []graph.NodeID, []graph.NodeID, map[graph.NodeID]float64) {
	g, users, items := randomCFGraph(rng)
	for i := 0; i < 1+rng.Intn(3); i++ {
		id := g.MaxNodeID() + 1
		if err := g.AddNode(graph.NewNode(id, graph.TypeItem)); err != nil {
			panic(err)
		}
		items = append(items, id)
	}
	scores := make(map[graph.NodeID]float64, len(items))
	for _, it := range items {
		scores[it] = float64(rng.Intn(4)) / 4
	}
	return g, users, items, scores
}

// TestSocialGroupingMatchesTaggersOracle: on 60 seeded graphs — repeat
// acts, acts from non-user nodes, items with no act links — social
// grouping, its zoom and the organized presentation equal the taggers-set
// oracle at every θ.
func TestSocialGroupingMatchesTaggersOracle(t *testing.T) {
	grouped := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, _, items, scores := randomGroupingCase(rng)
		for _, theta := range []float64{0, 0.3, 1.0 / 3, 0.5, 2.0 / 3, 1, math.Nextafter(0.3, 0), math.Nextafter(0.3, 1)} {
			got, err := SocialGrouping(g, items, scores, theta)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleSocialGrouping(g, items, scores, theta); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d θ %g: SocialGrouping =\n%+v\nwant\n%+v", seed, theta, got, want)
			}
			if len(got.Groups) > 1 && len(got.Groups) < len(items) {
				grouped++
			}
			cfg := OrganizeConfig{SocialTheta: theta, MaxGroups: 1 + rng.Intn(4)}
			pres, err := Organize(g, items, scores, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleOrganize(g, items, scores, cfg); !reflect.DeepEqual(pres, want) {
				t.Fatalf("seed %d θ %g: Organize =\n%+v\nwant\n%+v", seed, theta, pres, want)
			}
		}
	}
	// Guard against a generator whose groupings are all trivial.
	if grouped < 20 {
		t.Errorf("only %d groupings were neither one group nor all singletons", grouped)
	}
}

// endorserJaccard is the Jaccard similarity of two endorser vectors' ids,
// merged in full; 0 when both are empty. SocialGrouping tested
// endorserJaccard(a, b) >= θ before jaccardAtLeast pruned it, and that
// test is the definition the pruned one must reproduce.
func endorserJaccard(a, b []graph.Endorser) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// randomEndorsers draws an ascending, repeat-free endorser vector of up
// to n ids out of [0, span).
func randomEndorsers(rng *rand.Rand, n, span int) []graph.Endorser {
	var v []graph.Endorser
	for _, id := range rng.Perm(span)[:rng.Intn(n+1)] {
		v = append(v, graph.Endorser{ID: graph.NodeID(id)})
	}
	slices.SortFunc(v, func(x, y graph.Endorser) int { return cmp.Compare(x.ID, y.ID) })
	return v
}

// TestJaccardAtLeastMatchesFloatTest: the pruned predicate equals the
// full merge's float test on random sorted vectors, empty ones included,
// at θ values that sit exactly on achievable ratios, one ulp either side
// of them, and in between. Vectors drawn from a narrow id span overlap
// often, so both verdicts are common.
func TestJaccardAtLeastMatchesFloatTest(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	thetas := []float64{0, 1, 0.3, 0.5, math.Nextafter(0.3, 0), math.Nextafter(0.3, 1)}
	for num := 1; num <= 12; num++ {
		for den := num; den <= 12; den++ {
			r := float64(num) / float64(den)
			thetas = append(thetas, r, math.Nextafter(r, 0), math.Nextafter(r, 1))
		}
	}
	accepted, rejected := 0, 0
	for c := 0; c < 4000; c++ {
		span := 4 + rng.Intn(40)
		a, b := randomEndorsers(rng, min(span, 1+rng.Intn(24)), span), randomEndorsers(rng, min(span, 1+rng.Intn(24)), span)
		for _, theta := range thetas {
			got, want := jaccardAtLeast(a, b, theta), endorserJaccard(a, b) >= theta
			if got != want {
				t.Fatalf("θ %v a %v b %v: jaccardAtLeast %v, float test %v (J = %v)", theta, a, b, got, want, endorserJaccard(a, b))
			}
			if got {
				accepted++
			} else {
				rejected++
			}
		}
	}
	if accepted < 10000 || rejected < 10000 {
		t.Errorf("verdicts too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// TestExplainContentMatchesActedItemsOracle: every (user, item) content
// explanation equals the acted-item-set oracle.
func TestExplainContentMatchesActedItemsOracle(t *testing.T) {
	similar := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, users, items, _ := randomGroupingCase(rng)
		for _, u := range users {
			for _, it := range items {
				got, want := ExplainContent(g, u, it), oracleExplainContent(g, u, it)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: ExplainContent(%d, %d) =\n%+v\nwant\n%+v", seed, u, it, got, want)
				}
				similar += len(got.Items)
			}
		}
	}
	if similar == 0 {
		t.Error("no content explanation named a similar item")
	}
}
