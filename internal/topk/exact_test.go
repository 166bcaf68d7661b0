package topk_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/topk"
)

// The oracle suite: TA and NRA rankings held to the brute-force
// index.(*Data).ExactTopK, on the hand-checked fixture and on random
// tagging sites, under every clustering strategy.

var earlyStrategies = []topk.Strategy{topk.TA, topk.NRA}

func buildProcessor(t testing.TB, g *graph.Graph, s cluster.Strategy, theta float64) *topk.Processor {
	t.Helper()
	cl, err := cluster.Build(g, s, theta)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(index.Extract(g), cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	p, err := topk.New(ix, scoring.SumG)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTopKMatchesExactAcrossStrategies(t *testing.T) {
	g := exampleGraph()
	d := index.Extract(g)
	tags := []string{"go", "db"}
	for _, s := range []cluster.Strategy{cluster.PerUser, cluster.NetworkBased,
		cluster.BehaviorBased, cluster.Hybrid, cluster.Global} {
		p := buildProcessor(t, g, s, 0.3)
		for _, u := range d.Users {
			want := d.ExactTopK(u, tags, 3, scoring.CountF, scoring.SumG)
			for _, strat := range earlyStrategies {
				got, _, err := p.TopKCtx(context.Background(), u, tags, 3, strat)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s user %d: TopK = %v, exact = %v", s, strat, u, got, want)
				}
			}
		}
	}
}

// TestTopKStatsShowRescoringOverhead prices clustering the way §6.2 does:
// the global index's upper bounds force at least as many exact rescores
// as the per-user index's exact scores.
func TestTopKStatsShowRescoringOverhead(t *testing.T) {
	g := exampleGraph()
	per := buildProcessor(t, g, cluster.PerUser, 0)
	glob := buildProcessor(t, g, cluster.Global, 0)
	for _, strat := range earlyStrategies {
		_, sPer, err := per.TopKCtx(context.Background(), 1, []string{"go"}, 1, strat)
		if err != nil {
			t.Fatal(err)
		}
		_, sGlob, err := glob.TopKCtx(context.Background(), 1, []string{"go"}, 1, strat)
		if err != nil {
			t.Fatal(err)
		}
		if sGlob.ExactScores < sPer.ExactScores {
			t.Errorf("%s: global index should rescore at least as much: %d vs %d",
				strat, sGlob.ExactScores, sPer.ExactScores)
		}
		if sPer.PostingsScanned == 0 || sPer.Candidates == 0 {
			t.Errorf("%s: stats not populated: %+v", strat, sPer)
		}
	}
}

func TestTopKErrors(t *testing.T) {
	p := buildProcessor(t, exampleGraph(), cluster.PerUser, 0)
	for _, strat := range []topk.Strategy{topk.Exhaustive, topk.TA, topk.NRA} {
		if _, _, err := p.TopKCtx(context.Background(), 1, []string{"go"}, 0, strat); err == nil {
			t.Errorf("%s: k=0 accepted", strat)
		}
		if _, _, err := p.TopKCtx(context.Background(), 999, []string{"go"}, 1, strat); err == nil {
			t.Errorf("%s: unknown user accepted", strat)
		}
		// Unindexed tags are silently empty lists.
		got, _, err := p.TopKCtx(context.Background(), 1, []string{"nosuch"}, 2, strat)
		if err != nil || len(got) != 0 {
			t.Errorf("%s: unindexed tag: %v, %v", strat, got, err)
		}
	}
}

// randomTagGraph generates a random tagging site: each pair of users is
// connected with probability 1/3, and each user tags each item with one
// random tag with probability 1/3.
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

// Property: for every strategy and θ, TA and NRA over the clustered index
// equal brute force — upper bounds plus rescoring never change answers.
func TestQuickTopKCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		g := randomTagGraph(seed, 8, 10, 3)
		d := index.Extract(g)
		if len(d.Tags) == 0 {
			return true
		}
		queryTags := d.Tags
		if len(queryTags) > 2 {
			queryTags = queryTags[:2]
		}
		for _, s := range []cluster.Strategy{cluster.PerUser, cluster.NetworkBased,
			cluster.BehaviorBased, cluster.Global} {
			p := buildProcessor(t, g, s, 0.4)
			for _, u := range d.Users {
				want := d.ExactTopK(u, queryTags, 3, scoring.CountF, scoring.SumG)
				for _, strat := range earlyStrategies {
					got, _, err := p.TopKCtx(context.Background(), u, queryTags, 3, strat)
					if err != nil || !slices.Equal(got, want) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
