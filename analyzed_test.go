package socialscope

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"socialscope/internal/analyzer"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/presentation"
	"socialscope/internal/workload"
)

// refEngine is the reference an analyzed engine must match: a base graph
// every batch lands on and, once analyzed, an enriched copy every batch
// lands on too, re-derived from a deep copy of the base by each analyze.
type refEngine struct {
	cfg      Config
	base     *Graph
	analyzed *Graph // nil until analyze
}

func (r *refEngine) serving() *Graph {
	if r.analyzed != nil {
		return r.analyzed
	}
	return r.base
}

func (r *refEngine) apply(muts []graph.Mutation) error {
	base := r.base.ShallowClone()
	if err := base.ApplyAll(muts); err != nil {
		return err
	}
	if r.analyzed != nil {
		an := r.analyzed.ShallowClone()
		if err := an.ApplyAll(muts); err != nil {
			return fmt.Errorf("analyzed graph: %w", err)
		}
		r.analyzed = an
	}
	r.base = base
	return nil
}

func (r *refEngine) analyze() error {
	withTopics, _, err := analyzer.DeriveTopics(r.base.Clone(), r.cfg.ItemType, analyzer.LDAConfig{
		Topics: r.cfg.Topics, Seed: r.cfg.Seed, Alpha: 0.1,
	})
	if err != nil {
		return err
	}
	r.analyzed = analyzer.DeriveMatches(withTopics, r.cfg.MatchThreshold)
	return nil
}

// ckptBytes is g's canonical checkpoint encoding: contents, iteration
// order and id high-water marks.
func ckptBytes(g *Graph) []byte { return graph.NewCkptWriter().AppendCheckpoint(nil, g) }

// answer is what a response says, without the snapshot and version that
// differ between a live engine and a fresh one over the same graph.
type answer struct {
	User         NodeID
	Query        discovery.Query
	Basis        discovery.SocialBasis
	Results      []discovery.Result
	Presentation presentation.Presentation
	Summaries    []string
	Related      discovery.Related
}

func answerOf(r *Response) answer {
	return answer{r.MSG.User, r.MSG.Query, r.MSG.Basis, r.MSG.Results, r.Presentation, r.Summaries, r.Related}
}

// assertMatchesRef requires eng to serve what ref serves: the same
// serving graph, the same base behind the derived ranges, and the same
// tagged, fusion and collaborative-filtering answers for the panel.
func assertMatchesRef(t *testing.T, step string, eng *Engine, ref *refEngine, panel []NodeID, queries []string) {
	t.Helper()
	st := eng.state.Load()
	if !bytes.Equal(ckptBytes(st.g), ckptBytes(ref.serving())) {
		t.Fatalf("%s: serving graph diverged from the double-applied reference", step)
	}
	if (st.derived != nil) != (ref.analyzed != nil) {
		t.Fatalf("%s: analyzed %v, reference %v", step, st.derived != nil, ref.analyzed != nil)
	}
	if st.derived != nil {
		base := st.g.WithoutDerived(*st.derived)
		if base.MaxNodeID() != ref.base.MaxNodeID() || base.MaxLinkID() != ref.base.MaxLinkID() {
			t.Fatalf("%s: base marks %d/%d, reference %d/%d", step,
				base.MaxNodeID(), base.MaxLinkID(), ref.base.MaxNodeID(), ref.base.MaxLinkID())
		}
		if !bytes.Equal(ckptBytes(base), ckptBytes(ref.base)) {
			t.Fatalf("%s: base recovered from derived ranges %+v diverged from the reference base", step, *st.derived)
		}
	}
	fresh, err := New(ref.serving(), eng.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range panel {
		for _, q := range queries {
			got, err := eng.SearchCtx(ctx, u, q)
			if err != nil {
				t.Fatalf("%s: user %d %q: %v", step, u, q, err)
			}
			want, err := fresh.SearchCtx(ctx, u, q)
			if err != nil {
				t.Fatalf("%s: reference user %d %q: %v", step, u, q, err)
			}
			if !reflect.DeepEqual(answerOf(got), answerOf(want)) {
				t.Fatalf("%s: user %d %q:\n got  %+v\n want %+v", step, u, q, answerOf(got), answerOf(want))
			}
		}
		for _, v := range []discovery.CFVariant{discovery.CFStepwise, discovery.CFPattern} {
			got, err := eng.RecommendCtx(ctx, u, v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RecommendCtx(ctx, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: user %d %v recommendations:\n got  %+v\n want %+v", step, u, v, got, want)
			}
		}
	}
}

// TestAnalyzedEngineMatchesDoubleApply drives an engine and the double-
// applying reference with one seeded stream — taggings, consolidations,
// user removals that cascade match links, explicit removals of topics,
// belong and match links, and a second Analyze mid-stream — and compares
// them after every step.
func TestAnalyzedEngineMatchesDoubleApply(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 16, Destinations: 8, Seed: 29, VisitsPerUser: 4, TagFraction: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := &refEngine{cfg: eng.cfg, base: corpus.Graph}
	panel := corpus.Users[:3]
	vocab := workload.Categories
	// Keywords only take the index path, a structural query the fusion
	// path, and the empty query is social recommendation.
	queries := []string{vocab[4] + " " + vocab[1], vocab[4] + " type:destination rating>=0.3", ""}
	inPanel := func(id NodeID) bool { return id == panel[0] || id == panel[1] || id == panel[2] }
	ofType := func(g *Graph, typ string) []LinkID {
		var out []LinkID
		for _, id := range g.LinkIDs() {
			if g.Link(id).HasType(typ) {
				out = append(out, id)
			}
		}
		return out
	}

	rng := rand.New(rand.NewSource(53))
	seen := map[string]int{}
	assertMatchesRef(t, "genesis", eng, ref, panel, queries)
	for step := 0; step < 26; step++ {
		name := fmt.Sprintf("step %d", step)
		if step == 3 || step == 15 {
			if err := eng.Analyze(); err != nil {
				t.Fatal(err)
			}
			if err := ref.analyze(); err != nil {
				t.Fatal(err)
			}
			seen["analyze"]++
			assertMatchesRef(t, name+" (analyze)", eng, ref, panel, queries)
			continue
		}
		scratch := eng.Graph().Clone()
		clog := graph.RecordInto(scratch)
		ids := graph.IDSourceFor(scratch)
		tagging := func(u NodeID) {
			l := graph.NewLink(ids.NextLink(), u, corpus.Destinations[rng.Intn(len(corpus.Destinations))],
				graph.TypeAct, graph.SubtypeTag)
			l.Attrs.Add("tags", vocab[rng.Intn(len(vocab))])
			if err := scratch.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		removeOne := func(kind string, ls []LinkID) {
			if len(ls) > 0 {
				scratch.RemoveLink(ls[rng.Intn(len(ls))])
				seen[kind]++
			}
		}
		for o, ops := 0, 2+rng.Intn(3); o < ops; o++ {
			users := scratch.NodesOfType(graph.TypeUser)
			switch rng.Intn(8) {
			case 0, 1: // a new user tags an item
				u := graph.NewNode(ids.NextNode(), graph.TypeUser)
				u.Attrs.Add("name", fmt.Sprintf("stream-user-%d", u.ID))
				if err := scratch.AddNode(u); err != nil {
					t.Fatal(err)
				}
				tagging(u.ID)
				seen["tagging"]++
			case 2: // a user tags again
				tagging(users[rng.Intn(len(users))].ID)
				seen["tagging"]++
			case 3: // consolidate a tagging
				tags := ofType(scratch, graph.SubtypeTag)
				l := scratch.Link(tags[rng.Intn(len(tags))]).Clone()
				l.Attrs.Add("tags", vocab[rng.Intn(len(vocab))])
				if err := scratch.PutLink(l); err != nil {
					t.Fatal(err)
				}
				seen["consolidation"]++
			case 4: // remove a user outside the panel
				u := users[rng.Intn(len(users))].ID
				if inPanel(u) {
					continue
				}
				for _, l := range scratch.Out(u) {
					if l.HasType(graph.TypeMatch) {
						seen["user removal cascading matches"]++
						break
					}
				}
				scratch.RemoveNode(u)
			case 5: // remove a topic, cascading its belong links
				if topics := scratch.NodesOfType(graph.TypeTopic); len(topics) > 0 {
					scratch.RemoveNode(topics[rng.Intn(len(topics))].ID)
					seen["topic removal"]++
				}
			case 6:
				removeOne("belong removal", ofType(scratch, graph.TypeBelong))
			case 7:
				removeOne("match removal", ofType(scratch, graph.TypeMatch))
			}
		}
		muts := clog.Drain()
		if len(muts) == 0 {
			continue
		}
		if err := eng.Apply(muts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ref.apply(muts); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		assertMatchesRef(t, name, eng, ref, panel, queries)
	}
	for _, kind := range []string{"analyze", "tagging", "consolidation", "user removal cascading matches",
		"topic removal", "belong removal", "match removal"} {
		if seen[kind] == 0 {
			t.Errorf("the stream never exercised %s", kind)
		}
	}
	t.Logf("stream: %v", seen)
}

// TestApplyRejectsDerivedWrites covers the writes an analyzed engine
// refuses beyond the ones it always refuses: an add or put of an id in a
// range Analyze derived — live or already cascaded away — and a link to a
// derived node. Removing derived elements stays allowed.
func TestApplyRejectsDerivedWrites(t *testing.T) {
	corpus := buildCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	g := eng.Graph()
	d := *eng.state.Load().derived
	var topic *Node
	var belong *Link
	for id := d.NodeLo; id <= d.NodeHi && belong == nil; id++ {
		if in := g.In(id); len(in) > 0 {
			topic, belong = g.Node(id), in[0]
		}
	}
	if topic == nil || !topic.HasType(TypeTopic) || !belong.HasType(TypeBelong) || !eng.state.Load().derivedLink(belong.ID) {
		t.Fatalf("derived ranges %+v hold no topic with a belong link", d)
	}
	ids := graph.IDSourceFor(g)
	user, item := corpus.Users[0], belong.Src
	fresh := func(src, tgt NodeID) *Link {
		return graph.NewLink(ids.NextLink(), src, tgt, TypeAct, SubtypeTag)
	}
	for _, tc := range []struct {
		name string
		mut  graph.Mutation
		want string
	}{
		{"put of a derived node", graph.Mutation{Kind: graph.MutPutNode, Node: graph.NewNode(topic.ID, TypeTopic)},
			fmt.Sprintf("writes node %d, an id Analyze derived", topic.ID)},
		{"put of a derived link", graph.Mutation{Kind: graph.MutPutLink, Link: belong.Clone()},
			fmt.Sprintf("writes link %d, an id Analyze derived", belong.ID)},
		{"add of a link to a derived node", graph.Mutation{Kind: graph.MutAddLink, Link: fresh(user, topic.ID)},
			fmt.Sprintf("links node %d, which Analyze derived", topic.ID)},
		{"add of a link from a derived node", graph.Mutation{Kind: graph.MutAddLink, Link: fresh(topic.ID, item)},
			fmt.Sprintf("links node %d, which Analyze derived", topic.ID)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := eng.Apply([]graph.Mutation{tc.mut})
			if err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.Contains(err.Error(), "graph.IDSourceFor(eng.Graph())") {
				t.Fatalf("Apply = %v, want a rejection containing %q that points at graph.IDSourceFor", err, tc.want)
			}
		})
	}

	// Removing the topic cascades its belong links; re-adding either id
	// would re-use what the analyzer held.
	v := eng.Version()
	if err := eng.Apply([]graph.Mutation{{Kind: graph.MutRemoveNode, Node: topic}}); err != nil {
		t.Fatalf("removing a derived topic: %v", err)
	}
	if eng.Graph().HasNode(topic.ID) || eng.Graph().HasLink(belong.ID) || eng.Version() != v+1 {
		t.Fatal("topic removal did not cascade to its belong links")
	}
	for _, m := range []graph.Mutation{
		{Kind: graph.MutAddNode, Node: graph.NewNode(topic.ID, TypeTopic)},
		{Kind: graph.MutAddLink, Link: graph.NewLink(belong.ID, item, user, TypeAct, SubtypeTag)},
	} {
		if err := eng.Apply([]graph.Mutation{m}); err == nil ||
			!strings.Contains(err.Error(), "an id Analyze derived") {
			t.Fatalf("re-adding a cascaded derived id: Apply = %v", err)
		}
	}
	// Fresh ids past the serving graph's marks are accepted.
	if err := eng.Apply([]graph.Mutation{{Kind: graph.MutAddLink, Link: fresh(user, item)}}); err != nil {
		t.Fatalf("fresh tagging after Analyze: %v", err)
	}
}
