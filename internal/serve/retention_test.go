package serve

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// Wire retention: what a durable leader of the bench/ ledger's mixed
// workloads keeps per /apply mutation once the batch carrying it is
// applied. The ledger's writes are 8-mutation tagging batches decoded from
// JSON, so the probe decodes the same bodies through MutationWire and
// applies them, with the index built as the ledger's set-up builds it.
// It fails when retention grows past about 1.25× its figure at the time
// of writing.
//
// The first reading divides the heap growth over the batches applied right
// after set-up, so it also counts what set-up left to be filled in (a
// smaller set-up heap reads as more retention). A second, equal stretch of
// batches applied after the first reads what writes alone retain.
const (
	wireBatches   = 2000
	wireBatchSize = 8
	// 1.25× the figure measured once integer-keyed tries took id-ordered
	// paths, 16 consecutive ids to a leaf (linux/amd64, go1.24; 193 B on
	// hashed paths). A stored tagging is a 32-byte link over a body
	// interned for its (type set, attribute set) pair, and trie claims
	// copy only the slice they write: with 96-byte links and whole-node
	// claims it read 250 B, and 330 B before that with a private
	// attribute set per link.
	wireRetainedBound = 1.25 * 174 // bytes per mutation
	// 1.25× the second stretch's figure on id-ordered trie paths
	// (linux/amd64, go1.24; 173 B on hashed paths).
	wireSteadyBound = 1.25 * 166 // bytes per mutation
)

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func TestApplyWireRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user durable leader and applies 2000 batches")
	}
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.OpenDurable(t.TempDir(), corpus.Graph, socialscope.Config{
		ItemType: "destination", TopK: socialscope.TopKTA, ClusterStrategy: "peruser",
	}, socialscope.DurableOptions{CheckpointEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The ledger's set-up: one tagged query builds the index and the
	// serving snapshot's neighbourhood view.
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], "museum family"); err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewTaggingStream(eng.Graph(), corpus.Users, corpus.Destinations, workload.Categories, 1)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, 2*wireBatches)
	for i := range bodies {
		req := ApplyRequest{}
		for _, m := range stream.Batch(wireBatchSize) {
			req.Mutations = append(req.Mutations, MutationToWire(m))
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	apply := func(bodies [][]byte) {
		for _, body := range bodies {
			var req ApplyRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			muts := make([]graph.Mutation, len(req.Mutations))
			for i, mw := range req.Mutations {
				if muts[i], err = mw.Mutation(); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Apply(muts); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := liveHeap()
	apply(bodies[:wireBatches])
	mid := liveHeap()
	apply(bodies[wireBatches:])
	perMutation := (mid - before) / (wireBatches * wireBatchSize)
	steady := (liveHeap() - mid) / (wireBatches * wireBatchSize)
	t.Logf("durable leader: %.0f B retained per wire-decoded mutation after set-up, %.0f B over a second stretch", perMutation, steady)
	if perMutation > wireRetainedBound {
		t.Errorf("%.0f B retained per mutation, over its bound of %.0f B", perMutation, wireRetainedBound)
	}
	if steady > wireSteadyBound {
		t.Errorf("%.0f B retained per mutation over the second stretch, over its bound of %.0f B", steady, wireSteadyBound)
	}
	runtime.KeepAlive(bodies)
}
