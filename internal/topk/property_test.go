package topk

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/workload"
)

// assertStrategiesAgree evaluates the same queries under all three
// strategies and fails on any ranking divergence — the byte-identical
// contract the package doc promises for monotone f and g.
func assertStrategiesAgree(t *testing.T, proc *Processor, users []graph.NodeID,
	tags []string, k int, ctx string) {
	t.Helper()
	for _, u := range users {
		want, _, err := proc.TopKCtx(context.Background(), u, tags, k, Exhaustive)
		if err != nil {
			t.Fatalf("%s: exhaustive user %d: %v", ctx, u, err)
		}
		for _, strat := range []Strategy{TA, NRA} {
			got, st, err := proc.TopKCtx(context.Background(), u, tags, k, strat)
			if err != nil {
				t.Fatalf("%s: %s user %d: %v", ctx, strat, u, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s user %d k=%d diverges from exhaustive\n got %v\nwant %v",
					ctx, strat, u, k, got, want)
			}
			if st.SnapshotVersion != proc.Index().Version() {
				t.Fatalf("%s: %s stats report snapshot %d, index is at %d",
					ctx, strat, st.SnapshotVersion, proc.Index().Version())
			}
		}
	}
}

// assertListsSorted walks every posting list and fails unless it is in
// strictly maintained order: descending score, ascending item id on ties,
// positive scores only — the invariant both Build and ApplyDelta promise.
func assertListsSorted(t *testing.T, ix *index.Index, ctx string) {
	t.Helper()
	ix.ForEachList(func(cl int, tag string, l []index.Entry) {
		for i, e := range l {
			if e.Score <= 0 {
				t.Fatalf("%s: list (%d,%q) stores non-positive score %+v", ctx, cl, tag, e)
			}
			if i == 0 {
				continue
			}
			prev := l[i-1]
			if prev.Score < e.Score || (prev.Score == e.Score && prev.Item >= e.Item) {
				t.Fatalf("%s: list (%d,%q) out of order at %d: %+v before %+v",
					ctx, cl, tag, i, prev, e)
			}
		}
	})
}

// TestStrategiesAgreeOnRandomCorpora is the property suite the ISSUE
// demands: across 200+ seeded random corpora — rotating clustering
// strategies and k — TA, NRA and Exhaustive return identical rankings.
func TestStrategiesAgreeOnRandomCorpora(t *testing.T) {
	const corpora = 216
	clusterings := []struct {
		s     cluster.Strategy
		theta float64
	}{
		{cluster.PerUser, 0},
		{cluster.Global, 0},
		{cluster.NetworkBased, 0.3},
		{cluster.BehaviorBased, 0.4},
	}
	for seed := 0; seed < corpora; seed++ {
		w, err := workload.Tagging(workload.TaggingConfig{
			Users: 10 + seed%7, Items: 16 + seed%9, Tags: 3 + seed%4,
			Seed: int64(seed), TagsPerUser: 4 + seed%6,
		})
		if err != nil {
			t.Fatal(err)
		}
		cc := clusterings[seed%len(clusterings)]
		cl, err := cluster.Build(w.Graph, cc.s, cc.theta)
		if err != nil {
			t.Fatal(err)
		}
		data := index.Extract(w.Graph)
		ix, err := index.Build(data, cl, nil)
		if err != nil {
			t.Fatal(err)
		}
		proc, err := New(ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("corpus %d (%s)", seed, cc.s)
		assertListsSorted(t, ix, ctx)
		users := data.Users
		if len(users) > 3 {
			users = users[:3]
		}
		tags := data.Tags
		if len(tags) > 2 {
			tags = tags[:2]
		}
		k := 1 + seed%7
		assertStrategiesAgree(t, proc, users, tags, k, ctx)
	}
}

// TestStrategiesAgreeAfterDeltas streams random mutations through the
// graph and ApplyDelta and re-checks after every batch: every posting list
// stays sorted descending, the three strategies keep returning identical
// rankings on the maintained snapshot, and each returns the same ranking
// as it does over a rebuild of the mutated graph.
func TestStrategiesAgreeAfterDeltas(t *testing.T) {
	w, err := workload.Tagging(workload.TaggingConfig{
		Users: 25, Items: 40, Tags: 6, Seed: 19, TagsPerUser: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := w.Graph
	cl, err := cluster.Build(g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(index.Extract(g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nextLink := g.MaxLinkID()
	var added []*graph.Link

	randMut := func() graph.Mutation {
		users := ix.Data().Users
		items := ix.Data().Items
		tags := ix.Data().Tags
		switch p := rng.Float64(); {
		case p < 0.5: // new tagging
			nextLink++
			l := graph.NewLink(nextLink, users[rng.Intn(len(users))],
				items[rng.Intn(len(items))], graph.TypeAct, graph.SubtypeTag)
			l.AddAttr("tags", tags[rng.Intn(len(tags))])
			added = append(added, l)
			return graph.Mutation{Kind: graph.MutAddLink, Link: l}
		case p < 0.75: // new connection
			nextLink++
			l := graph.NewLink(nextLink, users[rng.Intn(len(users))],
				users[rng.Intn(len(users))], graph.TypeConnect)
			added = append(added, l)
			return graph.Mutation{Kind: graph.MutAddLink, Link: l}
		case len(added) > 0: // retract one of ours
			i := rng.Intn(len(added))
			l := added[i]
			added = append(added[:i], added[i+1:]...)
			return graph.Mutation{Kind: graph.MutRemoveLink, Link: l.Clone()}
		default:
			nextLink++
			l := graph.NewLink(nextLink, users[rng.Intn(len(users))],
				items[rng.Intn(len(items))], graph.TypeAct, graph.SubtypeTag)
			l.AddAttr("tags", tags[rng.Intn(len(tags))])
			added = append(added, l)
			return graph.Mutation{Kind: graph.MutAddLink, Link: l}
		}
	}

	const batches = 24
	for b := 0; b < batches; b++ {
		muts := make([]graph.Mutation, 6)
		for i := range muts {
			muts[i] = randMut()
		}
		pre := g.ShallowClone()
		if err := g.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		ix = ix.ApplyDelta(pre, muts)
		proc, err := New(ix, nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := index.Build(index.Extract(g), ix.Clustering(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rebuiltProc, err := New(rebuilt, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := fmt.Sprintf("batch %d (version %d)", b, ix.Version())
		assertListsSorted(t, ix, ctx)
		users := ix.Data().Users[:3]
		tags := ix.Data().Tags
		if len(tags) > 2 {
			tags = tags[:2]
		}
		assertStrategiesAgree(t, proc, users, tags, 5, ctx)
		for _, u := range users {
			for _, strat := range []Strategy{Exhaustive, TA, NRA} {
				got, _, err := proc.TopKCtx(context.Background(), u, tags, 5, strat)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := rebuiltProc.TopKCtx(context.Background(), u, tags, 5, strat)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s user %d: maintained index ranks %v, rebuild %v", ctx, strat, u, got, want)
				}
			}
		}
	}
	if ix.Version() != batches {
		t.Errorf("index version %d, want %d", ix.Version(), batches)
	}
}
