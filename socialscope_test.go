package socialscope

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/presentation"
	"socialscope/internal/workload"
)

// buildCorpus generates a small deterministic travel site for the
// end-to-end tests.
func buildCorpus(t testing.TB) *workload.TravelCorpus {
	t.Helper()
	c, err := workload.Travel(workload.TravelConfig{Users: 40, Destinations: 25, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEngineEndToEnd(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	// Analysis derived topics and matches.
	g := eng.Graph()
	if g.CountNodes(TypeTopic) == 0 {
		t.Error("Analyze derived no topics")
	}
	if g.CountLinks(TypeBelong) == 0 {
		t.Error("Analyze derived no belong links")
	}

	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "denver attractions")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results()) == 0 {
		t.Fatal("no results for a generic query on a populated corpus")
	}
	for _, r := range resp.Results() {
		if r.Score <= 0 {
			t.Errorf("non-positive score for %d", r.Item)
		}
		// Scoped to destinations.
		if !g.Node(r.Item).HasType("destination") {
			t.Errorf("result %d is not a destination", r.Item)
		}
	}
	if len(resp.Presentation.Chosen.Groups) == 0 {
		t.Error("no presentation groups")
	}
	if len(resp.Summaries) != len(resp.Results()) {
		t.Error("missing explanation summaries")
	}
	assertMSGProvenance(t, resp.MSG)
}

// assertMSGProvenance requires every result item and endorser of msg to
// exist in its snapshot, and each endorser to have an act link onto the
// item it endorses.
func assertMSGProvenance(t *testing.T, msg *discovery.MSG) {
	t.Helper()
	g := msg.Snapshot
	for _, r := range msg.Results {
		if !g.HasNode(r.Item) {
			t.Fatalf("result item %d missing from the snapshot", r.Item)
		}
	endorsers:
		for _, e := range r.Endorsers {
			if !g.HasNode(e) {
				t.Fatalf("endorser %d of item %d missing from the snapshot", e, r.Item)
			}
			for _, l := range g.Out(e) {
				if l.Tgt == r.Item && l.HasType(TypeAct) {
					continue endorsers
				}
			}
			t.Fatalf("endorser %d has no act link onto item %d", e, r.Item)
		}
	}
}

func TestEngineWithoutAnalyze(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	// Queries work pre-analysis (no topical grouping available).
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[1], "museum")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp
	if eng.Graph() != corpus.Graph {
		t.Error("pre-analysis graph should be the original")
	}
}

func TestEngineEmptyQuery(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[2], "")
	if err != nil {
		t.Fatal(err)
	}
	// Empty query: pure social recommendations (friends' endorsements).
	for _, r := range resp.Results() {
		if r.Semantic != 0 {
			t.Error("empty query produced semantic relevance")
		}
	}
}

func TestEngineRecommendVariantsAgree(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination", MatchThreshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	user := corpus.Users[3]
	step, err := eng.RecommendCtx(context.Background(), user, discovery.CFStepwise)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := eng.RecommendCtx(context.Background(), user, discovery.CFPattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(step) != len(pat) {
		t.Fatalf("variant recommendation counts differ: %d vs %d", len(step), len(pat))
	}
	for i := range step {
		if step[i].Item != pat[i].Item {
			t.Errorf("variant order differs at %d: %v vs %v", i, step[i], pat[i])
		}
	}
}

// TestConcurrentRecommend runs RecommendCtx from several goroutines at
// once: the plan's pooled scratch must never leak one call's state into
// another's answer, which must stay the algebra program's. Run it with
// -race.
func TestConcurrentRecommend(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination", MatchThreshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]discovery.Recommendation, len(corpus.Users))
	nonEmpty := 0
	for i, u := range corpus.Users {
		want[i], err = discovery.CollaborativeFilteringAlgebra(eng.Graph(), u, discovery.CFConfig{
			SimThreshold: eng.cfg.MatchThreshold, ItemType: eng.cfg.ItemType,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(want[i]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no user has recommendations; the comparison is vacuous")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				// Each goroutine walks the users from its own offset.
				for j := range corpus.Users {
					i := (j + 7*w) % len(corpus.Users)
					got, err := eng.RecommendCtx(context.Background(), corpus.Users[i], discovery.CFStepwise)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("user %d:\nplan    %+v\nalgebra %+v", corpus.Users[i], got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSummaryMatchesListOnBenchCorpus: on every (user, destination) pair
// of the bench/ ledger's corpus, the summary a response carries equals the
// phrasing of the full weighted explanation: the share of the user's
// friends on its list. Every user of this corpus has friends, so the
// friendless phrasing is held to the list by the presentation package's
// oracle and edge-case tests instead.
func TestSummaryMatchesListOnBenchCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("explains 120k pairs of a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Graph
	endorsed := 0
	for _, u := range corpus.Users {
		friends := map[NodeID]bool{}
		for _, l := range g.Incident(u) {
			if l.HasType(graph.TypeConnect) {
				other := l.Tgt
				if other == u {
					other = l.Src
				}
				friends[other] = true
			}
		}
		cf := presentation.NewCFContext(g, u)
		for _, d := range corpus.Destinations {
			list := cf.Weighted(d)
			n := 0
			for _, w := range list {
				if friends[w.ID] {
					n++
				}
			}
			if n > 0 {
				endorsed++
			}
			var want string
			switch {
			case len(friends) > 0:
				want = fmt.Sprintf("%d%% of your friends endorsed this item", 100*n/len(friends))
			case len(list) > 0:
				want = fmt.Sprintf("%d similar users endorsed this item", len(list))
			default:
				want = "No social endorsement found for this item"
			}
			if got := cf.Summary(d); got != want {
				t.Fatalf("user %d destination %d: Summary = %q, the list says %q", u, d, got, want)
			}
		}
	}
	if endorsed == 0 {
		t.Error("no friend endorses any destination; the comparison is vacuous")
	}
}

// TestCollaborativeFilteringPlanMatchesAlgebraOnBenchCorpus runs the
// item-side plan against the algebra program on the engine's graph of the
// bench/ corpus: a 60-user sample, both variants, at the paper's threshold
// and a looser one, before and after a stream of taggings.
func TestCollaborativeFilteringPlanMatchesAlgebraOnBenchCorpus(t *testing.T) {
	eng, users := benchCorpusEngine(t)
	sample := make([]NodeID, 60)
	for i := range sample {
		sample[i] = users[i*len(users)/len(sample)]
	}
	compare := func(pass string) {
		g := eng.Graph()
		nonEmpty := 0
		for _, user := range sample {
			for _, variant := range []discovery.CFVariant{discovery.CFStepwise, discovery.CFPattern} {
				for _, thr := range []float64{0.5, 0.2} {
					cfg := discovery.CFConfig{Variant: variant, SimThreshold: thr, ItemType: eng.cfg.ItemType}
					want, err := discovery.CollaborativeFilteringAlgebra(g, user, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := discovery.CollaborativeFiltering(g, user, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, user %d %+v:\nplan    %+v\nalgebra %+v", pass, user, cfg, got, want)
					}
					if len(got) > 0 {
						nonEmpty++
					}
				}
			}
		}
		if nonEmpty == 0 {
			t.Errorf("%s: no sampled user has recommendations; the comparison is vacuous", pass)
		}
	}
	compare("corpus")

	// Taggings are act links without visit, onto destinations the tagger
	// need not have visited, so afterwards a user's act targets (the
	// neighbourhood view's Acts) and visit targets part ways: a plan that
	// read the view instead of the visit links would fail the second pass.
	var dests []NodeID
	for _, n := range eng.Graph().NodesOfType(eng.cfg.ItemType) {
		dests = append(dests, n.ID)
	}
	stream, err := workload.NewTaggingStream(eng.Graph(), users, dests, workload.Categories, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := eng.Apply(stream.Batch(16)); err != nil {
			t.Fatal(err)
		}
	}
	g, parted := eng.Graph(), 0
	for _, user := range sample {
		var visits []NodeID
		for _, l := range g.Out(user) {
			if l.HasType(graph.SubtypeVisit) {
				visits = append(visits, l.Tgt)
			}
		}
		slices.Sort(visits)
		if !slices.Equal(g.Acts(user), slices.Compact(visits)) {
			parted++
		}
	}
	if parted == 0 {
		t.Fatal("every sampled user's act targets equal their visit targets; the taggings test nothing")
	}
	compare("after taggings")
}

func TestEngineErrors(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchCtx(context.Background(), 999999, "x"); err == nil {
		t.Error("unknown user accepted")
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], "rating>="); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestFacadeReExports(t *testing.T) {
	b := NewBuilder()
	u := b.Node([]string{TypeUser}, "name", "u")
	i := b.Node([]string{TypeItem}, "name", "i")
	b.Link(u, i, []string{TypeAct, SubtypeVisit})
	g := b.Graph()
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Error("facade builder broken")
	}
	if NewGraph().NumNodes() != 0 {
		t.Error("NewGraph broken")
	}
	// Type aliases interoperate with internal packages.
	var id NodeID = u
	if !g.HasNode(graph.NodeID(id)) {
		t.Error("NodeID alias broken")
	}
	for _, s := range []string{TypeUser, TypeItem, TypeTopic, TypeGroup, TypeConnect,
		TypeAct, TypeMatch, TypeBelong, SubtypeFriend, SubtypeTag, SubtypeVisit, SubtypeReview} {
		if strings.TrimSpace(s) == "" {
			t.Error("empty type constant")
		}
	}
}

func TestEngineStructuredQuery(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "city:denver rating>=0.5")
	if err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	for _, r := range resp.Results() {
		n := g.Node(r.Item)
		if n.Attrs.Get("city") != "denver" {
			t.Errorf("result %d outside the structural scope", r.Item)
		}
		if v, _ := n.Attrs.Float("rating"); v < 0.5 {
			t.Errorf("result %d violates rating predicate", r.Item)
		}
	}
}

func TestEngineRelatedEntities(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "attractions")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results()) == 0 {
		t.Skip("no results to relate")
	}
	// After Analyze every destination belongs to a topic, so a non-empty
	// result set must surface related topics.
	if len(resp.Related.Topics) == 0 {
		t.Error("no related topics after analysis")
	}
	for _, rt := range resp.Related.Topics {
		if !eng.Graph().Node(rt.Topic).HasType(TypeTopic) {
			t.Errorf("related topic %d is not a topic node", rt.Topic)
		}
	}
}
