package discovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"socialscope/internal/core"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// discoverOracle is the fusion path as the algebra states it, kept as the
// differential oracle for Discover's catalog plan: the scope is a
// core.NodeSelect graph, each scoped item's text is scored by BM25 on the
// spot against corpus (scoring.NodeCorpus over the item type), the basis
// is selected from raw links and per-act token sets, endorsers are
// collected per act link with a membership scan, and the ranking is an
// insertion sort.
func discoverOracle(g *graph.Graph, corpus *scoring.Corpus, itemType string, user graph.NodeID, q Query) (*MSG, error) {
	if itemType == "" {
		itemType = graph.TypeItem
	}
	if !g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if q.K <= 0 {
		q.K = 10
	}
	if q.Alpha < 0 || q.Alpha > 1 {
		return nil, fmt.Errorf("discovery: alpha %g outside [0,1]", q.Alpha)
	}

	scopeCond := core.Condition{Structural: append([]core.StructCond{
		core.Cond("type", itemType)}, q.Structural...)}
	scope := core.NodeSelect(g, scopeCond, nil)

	semantic := make(map[graph.NodeID]float64)
	if len(q.Keywords) > 0 {
		maxSem := 0.0
		for _, n := range scope.Nodes() {
			s := corpus.BM25(q.Keywords, n.Text())
			semantic[n.ID] = s
			if s > maxSem {
				maxSem = s
			}
		}
		if maxSem > 0 {
			for id := range semantic {
				semantic[id] /= maxSem
			}
		}
	}

	basis := selectSocialBasisOracle(g, user, q, 1)
	social := make(map[graph.NodeID]float64)
	endorsers := make(map[graph.NodeID][]graph.NodeID)
	if len(basis.Users) > 0 {
		for _, b := range basis.Users {
			for _, l := range g.Out(b) {
				if !l.HasType(graph.TypeAct) || !scope.HasNode(l.Tgt) {
					continue
				}
				if !containsOracle(endorsers[l.Tgt], b) {
					endorsers[l.Tgt] = append(endorsers[l.Tgt], b)
				}
			}
		}
		n := float64(len(basis.Users))
		for item, es := range endorsers {
			social[item] = float64(len(es)) / n
		}
	}

	alpha := q.Alpha
	switch {
	case len(q.Keywords) == 0:
		alpha = 0
	case len(social) == 0:
		alpha = 1
	}
	var ranked []Result
	for _, n := range scope.Nodes() {
		sem := semantic[n.ID]
		soc := social[n.ID]
		score := alpha*sem + (1-alpha)*soc
		if score <= 0 {
			continue
		}
		ranked = append(ranked, Result{
			Item: n.ID, Semantic: sem, Social: soc, Score: score,
			Endorsers: endorsers[n.ID],
		})
	}
	sortResultsOracle(ranked)
	if q.K < len(ranked) {
		ranked = ranked[:q.K]
	}
	return &MSG{User: user, Query: q, Basis: basis, Results: ranked, Snapshot: g}, nil
}

func selectSocialBasisOracle(g *graph.Graph, user graph.NodeID, q Query, minSize int) SocialBasis {
	if minSize <= 0 {
		minSize = 1
	}
	var friends []graph.NodeID
	seen := map[graph.NodeID]struct{}{}
	for _, l := range g.Incident(user) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		other := l.Tgt
		if other == user {
			other = l.Src
		}
		if _, dup := seen[other]; !dup && other != user {
			seen[other] = struct{}{}
			friends = append(friends, other)
		}
	}
	sort.Slice(friends, func(i, j int) bool { return friends[i] < friends[j] })
	if len(q.Keywords) == 0 {
		return SocialBasis{Kind: BasisFriends, Users: friends}
	}
	const basisRelevance = 0.5
	var relevant []graph.NodeID
	for _, f := range friends {
		for _, l := range g.Out(f) {
			if !l.HasType(graph.TypeAct) {
				continue
			}
			item := g.Node(l.Tgt)
			if item != nil && scoring.DefaultScorer(q.Keywords, item.Text()) >= basisRelevance {
				relevant = append(relevant, f)
				break
			}
		}
	}
	if len(relevant) >= minSize {
		return SocialBasis{Kind: BasisQueryFriends, Users: relevant}
	}
	experts := expertsForBasisOracle(g, q.Keywords, minSize*2, user)
	if len(experts) > 0 {
		return SocialBasis{Kind: BasisExperts, Users: experts}
	}
	return SocialBasis{Kind: BasisQueryFriends, Users: relevant}
}

func expertsForBasisOracle(g *graph.Graph, keywords []string, n int, exclude graph.NodeID) []graph.NodeID {
	type cnt struct {
		id graph.NodeID
		n  int
	}
	matching := make(map[graph.NodeID]struct{})
	for _, item := range g.NodesOfType(graph.TypeItem) {
		if scoring.DefaultScorer(keywords, item.Text()) == 1 {
			matching[item.ID] = struct{}{}
		}
	}
	var counts []cnt
	for _, u := range g.NodesOfType(graph.TypeUser) {
		if u.ID == exclude {
			continue
		}
		c := 0
		for _, l := range g.Out(u.ID) {
			if !l.HasType(graph.TypeAct) {
				continue
			}
			if _, ok := matching[l.Tgt]; ok {
				c++
			}
		}
		if c > 0 {
			counts = append(counts, cnt{u.ID, c})
		}
	}
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].n != counts[j].n {
			return counts[i].n > counts[j].n
		}
		return counts[i].id < counts[j].id
	})
	n = min(n, len(counts))
	out := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = counts[i].id
	}
	return out
}

// expertBasedOracle is ExpertBased over expertsForBasisOracle, the scan of
// every user's out-links it used before it shared the catalog's.
func expertBasedOracle(g *graph.Graph, keywords []string, n int) []Recommendation {
	if len(keywords) == 0 || n <= 0 {
		return nil
	}
	experts := expertsForBasisOracle(g, keywords, n, g.MaxNodeID()+1)
	counts := make(map[graph.NodeID]int)
	endorsers := make(map[graph.NodeID][]graph.NodeID)
	for _, e := range experts {
		for _, l := range g.Out(e) {
			item := g.Node(l.Tgt)
			if l.HasType(graph.TypeAct) && item != nil && scoring.DefaultScorer(keywords, item.Text()) == 1 {
				counts[l.Tgt]++
				endorsers[l.Tgt] = append(endorsers[l.Tgt], e)
			}
		}
	}
	var recs []Recommendation
	for item, c := range counts {
		recs = append(recs, Recommendation{Item: item, Score: float64(c), Basis: endorsers[item], Strategy: "expert"})
	}
	sortRecs(recs)
	return recs
}

func TestExpertBasedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	found := 0
	for i := 0; i < 200; i++ {
		g := randomDiscoveryGraph(rng)
		q := randomDiscoveryQuery(rng)
		for _, n := range []int{0, 1, 2, 5} {
			got, err := ExpertBased(g, q.Keywords, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := expertBasedOracle(g, q.Keywords, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d keywords %v n %d:\ngot  %+v\nwant %+v", i, q.Keywords, n, got, want)
			}
			if len(got) > 0 {
				found++
			}
		}
	}
	if found < 50 {
		t.Errorf("only %d cases recommend anything", found)
	}
}

func assembleOracle(g *graph.Graph, user graph.NodeID, results []Result) (*graph.Graph, error) {
	out := graph.New()
	out.PutNode(g.Node(user).Clone())
	ids := graph.IDSourceFor(g)
	for _, r := range results {
		item := g.Node(r.Item).Clone()
		item.SetScore(r.Score)
		out.PutNode(item)
		rec := graph.NewLink(ids.NextLink(), user, r.Item, "rec")
		rec.SetAttrFloat("score", r.Score)
		if err := out.AddLink(rec); err != nil {
			return nil, err
		}
		for _, e := range r.Endorsers {
			if !out.HasNode(e) {
				out.PutNode(g.Node(e).Clone())
			}
			for _, l := range g.Out(e) {
				if l.Tgt == r.Item && l.HasType(graph.TypeAct) && !out.HasLink(l.ID) {
					if err := out.AddLink(l.Clone()); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

func sortResultsOracle(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			if rs[j].Score > rs[j-1].Score ||
				(rs[j].Score == rs[j-1].Score && rs[j].Item < rs[j-1].Item) {
				rs[j], rs[j-1] = rs[j-1], rs[j]
			} else {
				break
			}
		}
	}
}

func containsOracle(ids []graph.NodeID, id graph.NodeID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// assertDiscoverMatchesOracle runs one query through d and through the
// oracle over d's graph and requires the same error, or the same results
// (every score to the bit, endorsers in order) and basis, and an MSG
// whose assembled subgraph is valid.
func assertDiscoverMatchesOracle(t *testing.T, d *Discoverer, corpus *scoring.Corpus, user graph.NodeID, q Query) *MSG {
	t.Helper()
	want, werr := discoverOracle(d.g, corpus, d.itemType, user, q)
	got, gerr := d.Discover(user, q)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("user %d %+v: Discover error %v, oracle error %v", user, q, gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("user %d %+v:\nresults %+v\noracle  %+v", user, q, got.Results, want.Results)
	}
	if !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Fatalf("user %d %+v: basis %+v, oracle %+v", user, q, got.Basis, want.Basis)
	}
	if got.User != want.User || !reflect.DeepEqual(got.Query, want.Query) {
		t.Fatalf("user %d %+v: header %d %+v, oracle %d %+v", user, q, got.User, got.Query, want.User, want.Query)
	}
	assertMSGGraph(t, got, d.g)
	return got
}

// assertMSGGraph requires msg to be over snapshot g and the MSG
// subgraph assembleOracle builds from its results to be valid.
func assertMSGGraph(t *testing.T, msg *MSG, g *graph.Graph) {
	t.Helper()
	if msg.Snapshot != g {
		t.Fatalf("user %d %+v: MSG over another snapshot", msg.User, msg.Query)
	}
	got, err := assembleOracle(g, msg.User, msg.Results)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("user %d %+v: %v", msg.User, msg.Query, err)
	}
}

// oracleVocabulary is the text the random graphs draw from: a stopword, a
// capitalised and a punctuated spelling, and enough distinct words that a
// keyword set can match every, some or no item.
var oracleVocabulary = []string{
	"denver", "Denver!", "baseball", "family", "museum", "beach", "the",
	"barcelona", "zoo", "park", "jazz", "b's",
}

// oracleRatings are the odd rating values the random graphs draw besides
// plain decimals: the specials strconv.ParseFloat accepts, an overflow, a
// hex float, the empty string and words it rejects.
var oracleRatings = []string{"NaN", "+Inf", "-Inf", "inf", "1e309", "0x1p-1", ".5", "", "high", "0.5x"}

// randomDiscoveryGraph draws a small site whose items carry random text
// and ratings (plain, special, unparsable, empty, multi-valued or absent), and whose shapes stress the fusion path: parallel act links,
// connect self-loops, acts onto users and groups, nodes typed item but not
// destination (and the reverse), and users that are also destinations.
func randomDiscoveryGraph(rng *rand.Rand) *graph.Graph {
	nodeTypes := [][]string{
		{graph.TypeUser}, {graph.TypeUser}, {graph.TypeUser}, {graph.TypeUser},
		{graph.TypeItem, "destination"}, {graph.TypeItem, "destination"},
		{graph.TypeItem, "destination"}, {graph.TypeItem}, {"destination"},
		{graph.TypeUser, "destination"}, {graph.TypeGroup},
	}
	linkTypes := [][]string{
		{graph.TypeAct, graph.SubtypeVisit}, {graph.TypeAct, graph.SubtypeVisit},
		{graph.TypeAct, graph.SubtypeVisit, graph.SubtypeTag}, {graph.TypeAct, graph.SubtypeReview},
		{graph.TypeConnect, graph.SubtypeFriend}, {graph.TypeConnect, graph.SubtypeFriend},
		{graph.SubtypeVisit}, {graph.TypeMatch},
	}
	words := func() string {
		var s string
		for n := rng.Intn(5); n > 0; n-- {
			s += oracleVocabulary[rng.Intn(len(oracleVocabulary))] + " "
		}
		return s
	}
	b := graph.NewBuilder()
	n := 8 + rng.Intn(16)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		kv := []string{"keywords", words()}
		switch r := rng.Intn(8); {
		case r < 4:
			kv = append(kv, "rating", fmt.Sprintf("%.1f", rng.Float64()))
		case r == 4:
			kv = append(kv, "rating", oracleRatings[rng.Intn(len(oracleRatings))])
		case r == 5: // multi-valued: ordered conditions read the first value
			kv = append(kv, "rating", oracleRatings[rng.Intn(len(oracleRatings))],
				"rating", fmt.Sprintf("%.1f", rng.Float64()))
		} // else no rating
		if rng.Intn(2) == 0 {
			kv = append(kv, "city", []string{"Denver", "Barcelona"}[rng.Intn(2)])
		}
		ids[i] = b.Node(nodeTypes[rng.Intn(len(nodeTypes))], kv...)
	}
	for m := n * (1 + rng.Intn(4)); m > 0; m-- {
		src, tgt := ids[rng.Intn(n)], ids[rng.Intn(n)]
		types := linkTypes[rng.Intn(len(linkTypes))]
		b.Link(src, tgt, types)
		if rng.Intn(8) == 0 {
			b.Link(src, tgt, types) // a parallel link
		}
	}
	return b.Graph()
}

// randomDiscoveryQuery draws a query from the shapes the fusion path
// distinguishes: no keywords, keywords every/some/no item matches, with or
// without structural predicates — fixed ones, or random ones on every
// core.Op — at α ∈ {0, 0.5, 1} and small and large K.
func randomDiscoveryQuery(rng *rand.Rand) Query {
	var q Query
	for n := rng.Intn(4); n > 0; n-- {
		q.Keywords = append(q.Keywords, scoring.Tokenize(oracleVocabulary[rng.Intn(len(oracleVocabulary))])...)
	}
	if rng.Intn(6) == 0 {
		q.Keywords = append(q.Keywords, "nowhere")
	}
	structural := [][]core.StructCond{
		nil, nil,
		{core.CondOp("rating", core.Ge, "0.5")},
		{core.Cond("city", "Denver")},
		{core.Cond("type", graph.TypeItem)},
		{core.CondOp("rating", core.Lt, "0.8"), core.CondOp("city", core.Ne, "Barcelona")},
	}
	if rng.Intn(2) == 0 {
		q.Structural = structural[rng.Intn(len(structural))]
	} else {
		for n := 1 + rng.Intn(2); n > 0; n-- {
			q.Structural = append(q.Structural, randomStructCond(rng))
		}
	}
	q.Alpha = []float64{0, 0.5, 1}[rng.Intn(3)]
	q.K = []int{0, 1, 3, 100}[rng.Intn(4)]
	return q
}

// randomStructCond draws a structural condition under any core.Op on id,
// type or an attribute, with no, one or two operands, some of which do
// not parse as the operator needs.
func randomStructCond(rng *rand.Rand) core.StructCond {
	operands := map[string][]string{
		"id":     {"1", "5", "9", "14", "007", "+3", "-1", "2.5", "x", ""},
		"type":   {"destination", graph.TypeItem, graph.TypeUser, "nowhere", ""},
		"rating": append([]string{"0.2", "0.5", "0.9", "1"}, oracleRatings...),
		"city":   {"Denver", "Barcelona", "3", ""},
	}
	attrs := []string{"id", "type", "rating", "rating", "city"}
	attr := attrs[rng.Intn(len(attrs))]
	ops := []core.Op{core.Eq, core.Ne, core.Gt, core.Ge, core.Lt, core.Le}
	sc := core.StructCond{Attr: attr, Op: ops[rng.Intn(len(ops))]}
	n := 1
	switch rng.Intn(8) {
	case 0:
		n = 0
	case 1:
		n = 2
	}
	for ; n > 0; n-- {
		sc.Values = append(sc.Values, operands[attr][rng.Intn(len(operands[attr]))])
	}
	return sc
}

func TestDiscoverMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	seeds, perUser := 60, 12
	if testing.Short() {
		seeds = 10
	}
	kinds := map[BasisKind]int{}
	cases, nonEmpty := 0, 0
	for i := 0; i < seeds; i++ {
		g := randomDiscoveryGraph(rng)
		for _, itemType := range []string{"destination", ""} {
			d := NewDiscoverer(g, itemType)
			corpus := scoring.NodeCorpus(g, d.itemType)
			for _, user := range g.NodeIDs() {
				for c := 0; c < perUser; c++ {
					msg := assertDiscoverMatchesOracle(t, d, corpus, user, randomDiscoveryQuery(rng))
					cases++
					kinds[msg.Basis.Kind]++
					if len(msg.Results) > 0 {
						nonEmpty++
					}
				}
			}
			assertDiscoverMatchesOracle(t, d, corpus, g.MaxNodeID()+1, Query{})
			assertDiscoverMatchesOracle(t, d, corpus, g.NodeIDs()[0], Query{Alpha: 1.5})
		}
	}
	t.Logf("%d cases, %d with results, bases %v", cases, nonEmpty, kinds)
	// Guard against a generator that stops exercising a basis kind or
	// stops producing results.
	for _, k := range []BasisKind{BasisFriends, BasisQueryFriends, BasisExperts} {
		if kinds[k]*20 < cases {
			t.Errorf("basis %v chosen in only %d of %d cases", k, kinds[k], cases)
		}
	}
	if nonEmpty*4 < cases {
		t.Errorf("only %d of %d cases return results", nonEmpty, cases)
	}
}

// TestDiscoverMatchesOracleBenchCorpus holds Discover to the oracle on the
// bench/ ledger's corpus under fusion_mix's search shapes — "<tag>
// type:destination rating>=r" and the empty query — across α and K.
func TestDiscoverMatchesOracleBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDiscoverer(corpus.Graph, "destination")
	bm25 := scoring.NodeCorpus(corpus.Graph, "destination")
	rng := rand.New(rand.NewSource(27))
	nonEmpty := 0
	const draws = 120
	for c := 0; c < draws; c++ {
		user := corpus.Users[rng.Intn(len(corpus.Users))]
		text := ""
		if rng.Intn(4) != 0 {
			text = fmt.Sprintf("%s type:destination rating>=%.1f",
				workload.Categories[rng.Intn(len(workload.Categories))], 0.3+0.1*float64(rng.Intn(6)))
		}
		q, err := ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0, 0.5, 1} {
			for _, k := range []int{1, 10, 1000} {
				q.Alpha, q.K = alpha, k
				if msg := assertDiscoverMatchesOracle(t, d, bm25, user, q); len(msg.Results) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty*2 < draws*9 {
		t.Errorf("only %d of %d cases return results", nonEmpty, draws*9)
	}
}

// The standalone SelectSocialBasis builds its own catalog; it must pick
// what the oracle picks for every user and keyword set, at several sizes.
func TestSelectSocialBasisMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		g := randomDiscoveryGraph(rng)
		for _, user := range g.NodeIDs() {
			q := randomDiscoveryQuery(rng)
			for _, minSize := range []int{0, 1, 3} {
				got := SelectSocialBasis(g, user, q, minSize)
				want := selectSocialBasisOracle(g, user, q, minSize)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("user %d %+v minSize %d: basis %+v, oracle %+v", user, q, minSize, got, want)
				}
			}
		}
	}
}
