package topk

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// corpora returns the graphs the equivalence suite runs over: the tagging
// workload (the Section 6.2 study's substrate), the travel workload
// (category tags over destinations) and a bare small-world network with
// hand-planted taggings — together the travel and network workloads the
// acceptance bar names.
func corpora(t *testing.T) map[string]struct {
	g    *graph.Graph
	tags []string
} {
	t.Helper()
	out := make(map[string]struct {
		g    *graph.Graph
		tags []string
	})

	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 60, Items: 120, Tags: 8, Seed: 7, TagsPerUser: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["tagging"] = struct {
		g    *graph.Graph
		tags []string
	}{tagging.Graph, tagging.Tags[:3]}

	travel, err := workload.Travel(workload.TravelConfig{
		Users: 80, Destinations: 40, Seed: 11, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["travel"] = struct {
		g    *graph.Graph
		tags []string
	}{travel.Graph, workload.Categories[:3]}

	b := graph.NewBuilder()
	users, err := workload.SmallWorld(b, workload.SmallWorldConfig{
		Users: 40, K: 4, Rewire: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]graph.NodeID, 10)
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem}, "name", fmt.Sprintf("it-%d", i))
	}
	netTags := []string{"jazz", "blues"}
	for ui, u := range users {
		b.Link(u, items[ui%len(items)], []string{graph.TypeAct, graph.SubtypeTag},
			"tags", netTags[ui%len(netTags)])
	}
	out["network"] = struct {
		g    *graph.Graph
		tags []string
	}{b.Graph(), netTags}
	return out
}

func buildProc(t *testing.T, g *graph.Graph, s cluster.Strategy, theta float64) *Processor {
	t.Helper()
	cl, err := cluster.Build(g, s, theta)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(index.Extract(g), cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(ix, scoring.SumG)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStrategiesMatchExhaustive is the acceptance bar: on every corpus and
// clustering, TA and NRA return byte-identical top-k lists to the
// exhaustive scorer for every user.
func TestStrategiesMatchExhaustive(t *testing.T) {
	for name, c := range corpora(t) {
		for _, cs := range []cluster.Strategy{cluster.PerUser, cluster.NetworkBased,
			cluster.BehaviorBased, cluster.Global} {
			p := buildProc(t, c.g, cs, 0.3)
			for _, u := range p.Index().Data().Users {
				want, _, err := p.TopKCtx(context.Background(), u, c.tags, 5, Exhaustive)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []Strategy{TA, NRA} {
					got, _, err := p.TopKCtx(context.Background(), u, c.tags, 5, s)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s/%s/%s user %d: got %v, want %v",
							name, cs, s, u, got, want)
					}
				}
			}
		}
	}
}

// TestEarlyTerminationSavesWork asserts the point of the whole package: on
// the default tagging workload TA and NRA scan fewer postings than the
// exhaustive scan, and NRA performs no more random accesses than TA.
func TestEarlyTerminationSavesWork(t *testing.T) {
	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 80, Items: 200, Tags: 10, Seed: 5, TagsPerUser: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildProc(t, tagging.Graph, cluster.PerUser, 0)
	tags := tagging.Tags[:3]
	var ex, ta, nra Stats
	var terminated int
	for _, u := range p.Index().Data().Users {
		_, s0, err := p.TopKCtx(context.Background(), u, tags, 10, Exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		_, s1, err := p.TopKCtx(context.Background(), u, tags, 10, TA)
		if err != nil {
			t.Fatal(err)
		}
		_, s2, err := p.TopKCtx(context.Background(), u, tags, 10, NRA)
		if err != nil {
			t.Fatal(err)
		}
		ex.Add(s0)
		ta.Add(s1)
		nra.Add(s2)
		if s1.EarlyTerminated {
			terminated++
		}
	}
	if ta.PostingsScanned >= ex.PostingsScanned {
		t.Errorf("TA scanned %d postings, exhaustive %d — no savings",
			ta.PostingsScanned, ex.PostingsScanned)
	}
	if nra.PostingsScanned >= ex.PostingsScanned {
		t.Errorf("NRA scanned %d postings, exhaustive %d — no savings",
			nra.PostingsScanned, ex.PostingsScanned)
	}
	if nra.ExactScores > ta.ExactScores {
		t.Errorf("NRA rescored %d items, TA %d — deferral should never cost more",
			nra.ExactScores, ta.ExactScores)
	}
	if terminated == 0 {
		t.Error("TA never terminated early on the default workload")
	}
}

func TestStatsComparableAcrossStrategies(t *testing.T) {
	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 30, Items: 60, Tags: 5, Seed: 2, TagsPerUser: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildProc(t, tagging.Graph, cluster.PerUser, 0)
	u := p.Index().Data().Users[0]
	_, s, err := p.TopKCtx(context.Background(), u, tagging.Tags[:2], 5, Exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(p.Index().Data().Items) * 2
	if s.PostingsScanned != wantCells || s.ExactScores != wantCells {
		t.Errorf("exhaustive stats = %+v, want %d cells", s, wantCells)
	}
	if s.EarlyTerminated {
		t.Error("exhaustive cannot terminate early")
	}
}

func TestErrors(t *testing.T) {
	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 10, Items: 10, Tags: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := buildProc(t, tagging.Graph, cluster.PerUser, 0)
	u := p.Index().Data().Users[0]
	if _, _, err := p.TopKCtx(context.Background(), u, tagging.Tags, 0, TA); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := p.TopKCtx(context.Background(), graph.NodeID(1<<40), tagging.Tags, 3, TA); err == nil {
		t.Error("unknown user accepted")
	}
	if _, _, err := p.TopKCtx(context.Background(), u, tagging.Tags, 3, Strategy(99)); err == nil {
		t.Error("bogus strategy accepted")
	}
	if _, err := New(nil, nil); err == nil {
		t.Error("nil index accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{Exhaustive, TA, NRA} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy parsed")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown String misrendered")
	}
}
