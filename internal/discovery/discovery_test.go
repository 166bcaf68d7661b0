package discovery

import (
	"math"
	"reflect"
	"testing"

	"socialscope/internal/core"
	"socialscope/internal/graph"
)

// johnFixture reproduces Example 1's setting: John searches "Denver
// attractions"; his friends' baseball activity should surface baseball
// destinations.
type johnFixture struct {
	g                        *graph.Graph
	john, ann, bob, selma    graph.NodeID
	coors, museum, zoo, parc graph.NodeID
	beach                    graph.NodeID
	expertJane, expertMax    graph.NodeID
}

func buildJohnFixture(t testing.TB) *johnFixture {
	t.Helper()
	b := graph.NewBuilder()
	f := &johnFixture{}
	f.john = b.Node([]string{graph.TypeUser}, "name", "John", "interests", "baseball")
	f.ann = b.Node([]string{graph.TypeUser}, "name", "Ann")
	f.bob = b.Node([]string{graph.TypeUser}, "name", "Bob")
	f.selma = b.Node([]string{graph.TypeUser}, "name", "Selma", "interests", "music")
	f.expertJane = b.Node([]string{graph.TypeUser}, "name", "Jane")
	f.expertMax = b.Node([]string{graph.TypeUser}, "name", "Max")

	f.coors = b.Node([]string{graph.TypeItem, "destination"},
		"name", "Coors Field", "city", "Denver", "keywords", "baseball stadium denver attractions", "rating", "0.9")
	f.museum = b.Node([]string{graph.TypeItem, "destination"},
		"name", "Ballpark Museum", "city", "Denver", "keywords", "baseball museum denver attractions", "rating", "0.6")
	f.zoo = b.Node([]string{graph.TypeItem, "destination"},
		"name", "Denver Zoo", "city", "Denver", "keywords", "zoo denver attractions family", "rating", "0.8")
	f.parc = b.Node([]string{graph.TypeItem, "destination"},
		"name", "Parc de la Ciutadella", "city", "Barcelona", "keywords", "family park babies barcelona", "rating", "0.7")
	f.beach = b.Node([]string{graph.TypeItem, "destination"},
		"name", "Barceloneta", "city", "Barcelona", "keywords", "beach barcelona", "rating", "0.5")

	// John's friends.
	b.Link(f.john, f.ann, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(f.john, f.bob, []string{graph.TypeConnect, graph.SubtypeFriend})
	// Selma's friends: the musicians John/Bob? No — Selma connects to Ann only.
	b.Link(f.selma, f.ann, []string{graph.TypeConnect, graph.SubtypeFriend})

	// Friends' activities: Ann and Bob visit baseball places.
	b.Link(f.ann, f.coors, []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(f.ann, f.museum, []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(f.bob, f.coors, []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(f.bob, f.zoo, []string{graph.TypeAct, graph.SubtypeVisit})
	// Experts on Barcelona family travel.
	b.Link(f.expertJane, f.parc, []string{graph.TypeAct, graph.SubtypeReview})
	b.Link(f.expertJane, f.beach, []string{graph.TypeAct, graph.SubtypeReview})
	b.Link(f.expertMax, f.parc, []string{graph.TypeAct, graph.SubtypeVisit})
	f.g = b.Graph()
	return f
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("Denver attractions type:destination rating>=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Keywords, []string{"denver", "attractions"}) {
		t.Errorf("keywords = %v", q.Keywords)
	}
	if len(q.Structural) != 2 {
		t.Fatalf("structural = %v", q.Structural)
	}
	if q.Structural[0].Attr != "type" || q.Structural[1].Op != core.Ge {
		t.Errorf("structural = %v", q.Structural)
	}
	if q.K != 10 || q.Alpha != 0.5 {
		t.Error("defaults not applied")
	}
	if _, err := ParseQuery("rating>="); err == nil {
		t.Error("empty predicate value accepted")
	}
	empty, err := ParseQuery("")
	if err != nil || !empty.IsEmpty() {
		t.Error("empty query should parse as empty")
	}
	if q.String() == "" || q.Condition().IsEmpty() {
		t.Error("String/Condition broken")
	}
}

func TestDiscoverSemanticAndSocial(t *testing.T) {
	f := buildJohnFixture(t)
	d := NewDiscoverer(f.g, "destination")
	q, err := ParseQuery("denver attractions")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := d.Discover(f.john, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Results) == 0 {
		t.Fatal("no results")
	}
	// All Denver attractions are semantically relevant; Coors Field is
	// endorsed by both friends and must rank first.
	if msg.Results[0].Item != f.coors {
		t.Errorf("top result = %d, want Coors Field (%d)", msg.Results[0].Item, f.coors)
	}
	// Coors has 2 endorsers, museum and zoo 1 each.
	if len(msg.Results[0].Endorsers) != 2 {
		t.Errorf("Coors endorsers = %v", msg.Results[0].Endorsers)
	}
	// Barcelona items must not surface for a Denver query.
	for _, r := range msg.Results {
		if r.Item == f.parc || r.Item == f.beach {
			t.Errorf("irrelevant item %d surfaced", r.Item)
		}
	}
	// MSG graph carries provenance.
	mg, err := assembleOracle(msg.Snapshot, msg.User, msg.Results)
	if err != nil {
		t.Fatal(err)
	}
	if mg.NumLinks() == 0 || !mg.HasNode(f.ann) {
		t.Error("MSG lacks provenance")
	}
	if err := mg.Validate(); err != nil {
		t.Error(err)
	}
	if msg.Basis.Kind != BasisQueryFriends && msg.Basis.Kind != BasisFriends {
		t.Errorf("basis = %v", msg.Basis.Kind)
	}
}

func TestDiscoverEmptyQueryIsPureSocial(t *testing.T) {
	f := buildJohnFixture(t)
	d := NewDiscoverer(f.g, "destination")
	msg, err := d.Discover(f.john, Query{K: 10, Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Social-only: results are exactly the friends' endorsed items.
	for _, r := range msg.Results {
		if r.Semantic != 0 {
			t.Errorf("empty query produced semantic score %f", r.Semantic)
		}
		if len(r.Endorsers) == 0 {
			t.Errorf("social-only result %d lacks endorsers", r.Item)
		}
	}
	if len(msg.Results) != 3 { // coors, museum, zoo
		t.Errorf("results = %v", msg.Results)
	}
}

func TestDiscoverStructuralScope(t *testing.T) {
	f := buildJohnFixture(t)
	d := NewDiscoverer(f.g, "destination")
	q, err := ParseQuery("city:Denver rating>=0.7")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := d.Discover(f.john, q)
	if err != nil {
		t.Fatal(err)
	}
	// Scope: Coors (0.9) and Zoo (0.8); both endorsed → both surface.
	for _, r := range msg.Results {
		if r.Item != f.coors && r.Item != f.zoo {
			t.Errorf("out-of-scope item %d", r.Item)
		}
	}
	if len(msg.Results) != 2 {
		t.Errorf("results = %v", msg.Results)
	}
}

func TestDiscoverNoSocialSignalFallsBackToSemantic(t *testing.T) {
	f := buildJohnFixture(t)
	d := NewDiscoverer(f.g, "destination")
	// Jane has no connections: social leg empty, semantic-only results.
	q, err := ParseQuery("barcelona family")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := d.Discover(f.expertJane, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Results) == 0 {
		t.Fatal("semantic fallback produced nothing")
	}
	if msg.Results[0].Item != f.parc {
		t.Errorf("top = %d, want Parc", msg.Results[0].Item)
	}
}

func TestDiscoverErrors(t *testing.T) {
	f := buildJohnFixture(t)
	d := NewDiscoverer(f.g, "")
	if _, err := d.Discover(9999, Query{}); err == nil {
		t.Error("unknown user accepted")
	}
	if _, err := d.Discover(f.john, Query{Alpha: 1.5}); err == nil {
		t.Error("alpha out of range accepted")
	}
	if _, err := d.Discover(f.john, Query{Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha accepted")
	}
}

func TestSelectSocialBasisSelma(t *testing.T) {
	// Example 2: Selma's musician friends lack family-trip activity; the
	// basis must fall back to query-relevant friends or experts.
	f := buildJohnFixture(t)
	q, err := ParseQuery("family babies barcelona")
	if err != nil {
		t.Fatal(err)
	}
	basis := SelectSocialBasis(f.g, f.selma, q, 1)
	// Selma's only friend Ann visited no Barcelona family items; experts
	// Jane and Max did.
	if basis.Kind != BasisExperts {
		t.Fatalf("basis kind = %v, want experts", basis.Kind)
	}
	found := map[graph.NodeID]bool{}
	for _, u := range basis.Users {
		found[u] = true
		if u == f.selma {
			t.Error("basis includes the querying user")
		}
	}
	if !found[f.expertJane] {
		t.Errorf("expert Jane missing from basis %v", basis.Users)
	}
	if basis.Kind.String() == "" || BasisKind(9).String() != "unknown" {
		t.Error("BasisKind String broken")
	}
}

func TestSelectSocialBasisFriends(t *testing.T) {
	f := buildJohnFixture(t)
	// No keywords: plain friends.
	basis := SelectSocialBasis(f.g, f.john, Query{}, 1)
	if basis.Kind != BasisFriends || len(basis.Users) != 2 {
		t.Errorf("basis = %+v", basis)
	}
	// Baseball keywords: both friends have baseball activity.
	q, _ := ParseQuery("baseball")
	basis2 := SelectSocialBasis(f.g, f.john, q, 1)
	if basis2.Kind != BasisQueryFriends || len(basis2.Users) != 2 {
		t.Errorf("basis2 = %+v", basis2)
	}
}

func TestCollaborativeFilteringBothVariants(t *testing.T) {
	// Reuse the Example 5 shape: John/Ann/Bob/Eve over destinations.
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser}, "name", "John")
	ann := b.Node([]string{graph.TypeUser}, "name", "Ann")
	bob := b.Node([]string{graph.TypeUser}, "name", "Bob")
	var dest [5]graph.NodeID
	for i := range dest {
		dest[i] = b.Node([]string{graph.TypeItem, "destination"})
	}
	visit := []string{graph.TypeAct, graph.SubtypeVisit}
	b.Link(john, dest[0], visit)
	b.Link(john, dest[1], visit)
	b.Link(ann, dest[0], visit)
	b.Link(ann, dest[1], visit)
	b.Link(ann, dest[2], visit)
	b.Link(bob, dest[3], visit)
	b.Link(bob, dest[4], visit)
	g := b.Graph()

	for _, variant := range []CFVariant{CFStepwise, CFPattern} {
		recs, err := CollaborativeFiltering(g, john, CFConfig{Variant: variant})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 { // Ann's three destinations
			t.Fatalf("%s: recs = %v", variant, recs)
		}
		for _, r := range recs {
			if math.Abs(r.Score-2.0/3.0) > 1e-9 {
				t.Errorf("%s: score = %f, want 2/3", variant, r.Score)
			}
			if len(r.Basis) != 1 || r.Basis[0] != ann {
				t.Errorf("%s: basis = %v, want [Ann]", variant, r.Basis)
			}
		}
	}

	// The two variants agree item-for-item (the Section 5.4 equivalence).
	a, err := CollaborativeFiltering(g, john, CFConfig{Variant: CFStepwise})
	if err != nil {
		t.Fatal(err)
	}
	p, err := CollaborativeFiltering(g, john, CFConfig{Variant: CFPattern})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(p) {
		t.Fatalf("variant disagreement: %v vs %v", a, p)
	}
	for i := range a {
		if a[i].Item != p[i].Item || math.Abs(a[i].Score-p[i].Score) > 1e-9 {
			t.Errorf("variant disagreement at %d: %v vs %v", i, a[i], p[i])
		}
	}
}

func TestCollaborativeFilteringErrors(t *testing.T) {
	f := buildJohnFixture(t)
	if _, err := CollaborativeFiltering(f.g, 9999, CFConfig{}); err == nil {
		t.Error("unknown user accepted")
	}
	if _, err := CollaborativeFiltering(f.g, f.john, CFConfig{Variant: CFVariant(9)}); err == nil {
		t.Error("unknown variant accepted")
	}
	if CFStepwise.String() != "stepwise" || CFPattern.String() != "pattern" {
		t.Error("CFVariant String broken")
	}
}

func TestContentBased(t *testing.T) {
	f := buildJohnFixture(t)
	// Give John a visit to Coors; Museum shares 'baseball denver
	// attractions' vocabulary and should be recommended.
	l := graph.NewLink(graph.IDSourceFor(f.g).NextLink(), f.john, f.coors,
		graph.TypeAct, graph.SubtypeVisit)
	if err := f.g.AddLink(l); err != nil {
		t.Fatal(err)
	}
	recs, err := ContentBased(f.g, f.john, "destination", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no content-based recommendations")
	}
	for _, r := range recs {
		if r.Item == f.coors {
			t.Error("already-visited item recommended")
		}
	}
	if recs[0].Item != f.museum {
		t.Errorf("top content rec = %d, want Museum", recs[0].Item)
	}
	if _, err := ContentBased(f.g, 9999, "", 0.1); err == nil {
		t.Error("unknown user accepted")
	}
}

func TestExpertBased(t *testing.T) {
	f := buildJohnFixture(t)
	recs, err := ExpertBased(f.g, []string{"barcelona"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no expert recommendations")
	}
	// Parc endorsed by both experts → top, score 2.
	if recs[0].Item != f.parc || recs[0].Score != 2 {
		t.Errorf("top expert rec = %+v", recs[0])
	}
	none, err := ExpertBased(f.g, []string{"nowhere"}, 2)
	if err != nil || none != nil {
		t.Errorf("no-expert case = %v, %v", none, err)
	}
}

// TestExpertBasedRanksExperts pins the expert scan behind ExpertBased:
// experts rank by their act links onto items matching every keyword, most
// first, and a recommendation's basis lists its experts in that order.
func TestExpertBasedRanksExperts(t *testing.T) {
	b := graph.NewBuilder()
	b.Node([]string{graph.TypeUser}, "name", "Alexia") // acts on nothing
	jane := b.Node([]string{graph.TypeUser}, "name", "Jane")
	casual := b.Node([]string{graph.TypeUser}, "name", "Casual")
	var hist []graph.NodeID
	for i := 0; i < 3; i++ {
		hist = append(hist, b.Node([]string{graph.TypeItem}, "keywords", "american history museum"))
	}
	beach := b.Node([]string{graph.TypeItem}, "keywords", "beach resort")
	for _, h := range hist {
		b.Link(jane, h, []string{graph.TypeAct, graph.SubtypeReview})
	}
	b.Link(casual, hist[0], []string{graph.TypeAct, graph.SubtypeVisit})
	b.Link(casual, beach, []string{graph.TypeAct, graph.SubtypeVisit})
	g := b.Graph()

	recs, err := ExpertBased(g, []string{"american", "history"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Item != hist[0] || !reflect.DeepEqual(recs[0].Basis, []graph.NodeID{jane, casual}) {
		t.Errorf("recs = %+v, want hist[0] first, endorsed by [Jane Casual]", recs)
	}
	if recs, err := ExpertBased(g, nil, 3); recs != nil || err != nil {
		t.Errorf("empty keywords = %v, %v; want nil", recs, err)
	}
	if recs, err := ExpertBased(g, []string{"american", "history"}, 0); recs != nil || err != nil {
		t.Errorf("n=0 = %v, %v; want nil", recs, err)
	}
}

func TestRelatedEntities(t *testing.T) {
	// Alexia's scenario: Jane reviews many result destinations; topics
	// attach via belong links.
	b := graph.NewBuilder()
	alexia := b.Node([]string{graph.TypeUser}, "name", "Alexia")
	friend := b.Node([]string{graph.TypeUser}, "name", "Friend")
	jane := b.Node([]string{graph.TypeUser}, "name", "Jane")
	casual := b.Node([]string{graph.TypeUser}, "name", "Casual")
	topic := b.Node([]string{graph.TypeTopic}, "name", "Independence War")
	var items []graph.NodeID
	for i := 0; i < 3; i++ {
		it := b.Node([]string{graph.TypeItem, "destination"},
			"name", "site", "keywords", "american history")
		items = append(items, it)
		b.Link(it, topic, []string{graph.TypeBelong})
	}
	b.Link(alexia, friend, []string{graph.TypeConnect, graph.SubtypeFriend})
	for _, it := range items {
		b.Link(friend, it, []string{graph.TypeAct, graph.SubtypeVisit})
		b.Link(jane, it, []string{graph.TypeAct, graph.SubtypeReview})
	}
	b.Link(casual, items[0], []string{graph.TypeAct, graph.SubtypeVisit})
	g := b.Graph()

	d := NewDiscoverer(g, "destination")
	q, err := ParseQuery("american history")
	if err != nil {
		t.Fatal(err)
	}
	msg, err := d.Discover(alexia, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Results) != 3 {
		t.Fatalf("results = %v", msg.Results)
	}
	rel := RelatedEntities(g, msg, 2, 5)
	// Jane acted on all three results; the basis (friend) and Alexia are
	// excluded; casual only touched one item (< minActs).
	if len(rel.Users) != 1 || rel.Users[0].User != jane || rel.Users[0].Count != 3 {
		t.Errorf("related users = %+v", rel.Users)
	}
	if len(rel.Topics) != 1 || rel.Topics[0].Topic != topic || rel.Topics[0].Count != 3 {
		t.Errorf("related topics = %+v", rel.Topics)
	}
	// Limits and defaults.
	rel2 := RelatedEntities(g, msg, 0, 0)
	if len(rel2.Users) == 0 {
		t.Error("defaults should still surface Jane")
	}
}
