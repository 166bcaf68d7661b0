package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/persist"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// TestTransientBuildMatchesPersistent runs the cold bulk pipeline — deep
// Clone, induced subgraph, JSON Decode, Extract and Build — and then
// ApplyDelta over seeded 1-, 8- and 16-mutation tagging batches, once on
// the pure persistent write path (persist.DisableTransients) and once
// through transient windows. Trie shapes are canonical for a key set, so
// the write mode must never show through to a reader: every graph must be
// Equal and every index must hold identical posting lists. The test flips
// a package global, so it must not run in parallel.
func TestTransientBuildMatchesPersistent(t *testing.T) {
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 150, Items: 300, Tags: 20, Seed: 42, TagsPerUser: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.Graph
	cl, err := cluster.Build(g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := g.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	keep := make(map[graph.NodeID]struct{})
	for i, id := range g.NodeIDs() {
		if i%2 == 0 {
			keep[id] = struct{}{}
		}
	}
	stream, err := workload.NewTaggingStream(g, corpus.Users, corpus.Items, corpus.Tags, 7)
	if err != nil {
		t.Fatal(err)
	}
	batchSizes := []int{1, 8, 16}
	batches := make([][]graph.Mutation, len(batchSizes))
	for i, n := range batchSizes {
		batches[i] = stream.Batch(n)
	}

	type built struct {
		graphs []*graph.Graph // clone, induced, decoded
		ix     *Index
		deltas []*Index // ix after each batch in turn
	}
	build := func(persistentOnly bool) built {
		persist.DisableTransients = persistentOnly
		defer func() { persist.DisableTransients = false }()
		decoded, err := graph.Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(Extract(g), cl, scoring.CountF)
		if err != nil {
			t.Fatal(err)
		}
		var deltas []*Index
		live := g.ShallowClone()
		for cur, b := ix, 0; b < len(batches); b++ {
			cur = cur.ApplyDelta(live, batches[b])
			if err := live.ApplyAll(batches[b]); err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, cur)
		}
		return built{graphs: []*graph.Graph{g.Clone(), g.InducedByNodes(keep), decoded}, ix: ix, deltas: deltas}
	}
	persistent, transient := build(true), build(false)
	for i, name := range []string{"clone", "induced", "decode"} {
		if !transient.graphs[i].Equal(persistent.graphs[i]) {
			t.Errorf("%s: transient-built graph differs from persistent-built", name)
		}
	}
	assertSameLists(t, transient.ix, persistent.ix, "transient vs persistent build")
	for i, n := range batchSizes {
		assertSameLists(t, transient.deltas[i], persistent.deltas[i],
			fmt.Sprintf("transient vs persistent ApplyDelta of %d mutations", n))
	}
}

// TestDifferentialBulkBatches drives small (8) and large (64) ApplyDelta
// batches, each written through the batch's transient window, and holds
// the result to the same contract as every other batch: byte-identical to
// a from-scratch rebuild, with the pre-batch snapshot untouched.
func TestDifferentialBulkBatches(t *testing.T) {
	const batches = 6
	for _, batchSize := range []int{8, 64} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*104729 + 3))
			c := newDiffCorpus(t, rng, 16, 22, 6)
			cl, err := cluster.Build(c.g, cluster.NetworkBased, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(Extract(c.g), cl, nil)
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < batches; batch++ {
				prev := ix
				prevEntries := prev.EntryCount()
				frozen, err := Build(Extract(c.g.Clone()), prev.Clustering(), nil)
				if err != nil {
					t.Fatal(err)
				}
				muts := make([]graph.Mutation, batchSize)
				for i := range muts {
					muts[i] = c.randMutation(rng)
				}
				pre := c.g.ShallowClone()
				if err := c.g.ApplyAll(muts); err != nil {
					t.Fatalf("seed %d batch %d: %v", seed, batch, err)
				}
				ix = prev.ApplyDelta(pre, muts)
				ctx := fmt.Sprintf("bulk seed %d batch %d (%d mutations)", seed, batch, batchSize)
				assertSorted(t, ix, ctx)
				rebuilt, err := Build(Extract(c.g), ix.Clustering(), nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameLists(t, ix, rebuilt, ctx)
				// The parent snapshot must not have observed the transient
				// window: same entry count, same lists as its frozen twin.
				if prev.EntryCount() != prevEntries {
					t.Fatalf("%s: parent entry count changed under bulk delta", ctx)
				}
				assertSameLists(t, prev, frozen, ctx+" (parent snapshot)")
			}
		}
	}
}

// TestExtractMatchesIncremental pins the transient-built Extract to the
// incremental substrate path: folding a stream through one-mutation
// ApplyDelta batches must land on the same substrate (scores, universes)
// as re-extracting the mutated graph, exactly as before the bulk rebase.
func TestExtractMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newDiffCorpus(t, rng, 12, 16, 5)
	cl, err := cluster.Build(c.g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Extract(c.g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fold 64 fresh taggings both ways.
	for i := 0; i < 64; i++ {
		muts := []graph.Mutation{c.randTagging(rng)}
		pre := c.g.ShallowClone()
		if err := c.g.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		ix = ix.ApplyDelta(pre, muts)
	}
	data, reext := ix.Data(), Extract(c.g)
	if len(data.Users) != len(reext.Users) || len(data.Items) != len(reext.Items) ||
		len(data.Tags) != len(reext.Tags) {
		t.Fatalf("universes diverged: %d/%d users %d/%d items %d/%d tags",
			len(data.Users), len(reext.Users), len(data.Items), len(reext.Items),
			len(data.Tags), len(reext.Tags))
	}
	for _, tag := range reext.Tags {
		for _, item := range reext.Items {
			for _, u := range reext.Users[:min(len(reext.Users), 6)] {
				got := data.ScoreTag(item, u, tag, scoring.CountF)
				want := reext.ScoreTag(item, u, tag, scoring.CountF)
				if got != want {
					t.Fatalf("ScoreTag(%d,%d,%q) = %v incremental, %v re-extract",
						item, u, tag, got, want)
				}
			}
		}
	}
}
