package socialscope

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// liveConfig is the engine configuration every live-update test uses.
func liveConfig() Config {
	return Config{ItemType: "destination", TopK: TopKTA}
}

// tagMutation builds an add-link mutation: user tags item with tag.
func tagMutation(id LinkID, user, item NodeID, tag string) Mutation {
	l := graph.NewLink(id, user, item, TypeAct, SubtypeTag)
	l.AddAttr("tags", tag)
	return Mutation{Kind: graph.MutAddLink, Link: l}
}

// TestEngineApplyMatchesRebuild pins the live engine's correctness: after
// Apply, rankings must equal those of a fresh engine built over the
// mutated graph, and the original input graph must be untouched.
func TestEngineApplyMatchesRebuild(t *testing.T) {
	corpus := topkCorpus(t)
	query := workload.Categories[0]
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], query); err != nil {
		t.Fatal(err) // warm: builds index snapshot version 0
	}

	linksBefore := corpus.Graph.NumLinks()
	nextLink := corpus.Graph.MaxLinkID()
	var muts []Mutation
	for i, u := range corpus.Users[:12] {
		nextLink++
		d := corpus.Destinations[i%len(corpus.Destinations)]
		muts = append(muts, tagMutation(nextLink, u, d, workload.Categories[0]))
	}
	if err := eng.Apply(muts); err != nil {
		t.Fatal(err)
	}
	if corpus.Graph.NumLinks() != linksBefore {
		t.Fatalf("Apply mutated the caller's graph: %d links, had %d",
			corpus.Graph.NumLinks(), linksBefore)
	}
	if eng.Version() != 1 {
		t.Fatalf("engine version %d after one Apply, want 1", eng.Version())
	}

	rebuilt := corpus.Graph.Clone()
	if err := rebuilt.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(rebuilt, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range corpus.Users[:10] {
		live, err := eng.SearchCtx(context.Background(), u, query)
		if err != nil {
			t.Fatal(err)
		}
		if live.Stats == nil || live.Stats.SnapshotVersion != 1 {
			t.Fatalf("user %d: stats %+v, want snapshot version 1", u, live.Stats)
		}
		want, err := fresh.SearchCtx(context.Background(), u, query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Results(), want.Results()) {
			t.Errorf("user %d: live results diverge from rebuild\n got %v\nwant %v",
				u, live.Results(), want.Results())
		}
	}
}

// TestEngineApplyChangelog drives Apply from a recorded changelog: edits
// happen on a scratch copy of the site graph, the drained log feeds the
// engine, and a brand-new user becomes searchable.
func TestEngineApplyChangelog(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], workload.Categories[0]); err != nil {
		t.Fatal(err)
	}

	scratch := corpus.Graph.Clone()
	log := graph.RecordInto(scratch)
	newcomer := scratch.MaxNodeID() + 1
	if err := scratch.AddNode(graph.NewNode(newcomer, TypeUser)); err != nil {
		t.Fatal(err)
	}
	lid := scratch.MaxLinkID()
	for _, friend := range corpus.Users[:3] {
		lid++
		if err := scratch.AddLink(graph.NewLink(lid, newcomer, friend, TypeConnect, SubtypeFriend)); err != nil {
			t.Fatal(err)
		}
	}
	// A friend endorses a destination with the query tag, so the newcomer
	// provably scores it.
	lid++
	endorsed := graph.NewLink(lid, corpus.Users[0], corpus.Destinations[0], TypeAct, SubtypeTag)
	endorsed.AddAttr("tags", workload.Categories[0])
	if err := scratch.AddLink(endorsed); err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(log.Drain()); err != nil {
		t.Fatal(err)
	}

	resp, err := eng.SearchCtx(context.Background(), newcomer, workload.Categories[0])
	if err != nil {
		t.Fatalf("newcomer not searchable after Apply: %v", err)
	}
	found := false
	for _, r := range resp.Results() {
		if r.Item == corpus.Destinations[0] {
			found = true
		}
	}
	if !found {
		t.Errorf("newcomer does not see the friend-endorsed destination: %v", resp.Results())
	}
}

// TestEngineLiveConcurrent hammers one engine with concurrent Search,
// Apply and Version calls. Run under -race this is the
// concurrency-correctness gate for the RCU snapshot path; in any mode it
// verifies the final state converges to exactly what a fresh engine over
// the final graph computes.
func TestEngineLiveConcurrent(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], workload.Categories[0]); err != nil {
		t.Fatal(err)
	}

	const (
		searchers       = 4
		appliers        = 2
		batchesPer      = 12
		tagsPerBatch    = 4
		searchesPerGoro = 40
	)
	var nextLink atomic.Int64
	nextLink.Store(int64(corpus.Graph.MaxLinkID()))
	errCh := make(chan error, searchers+appliers)
	var wg sync.WaitGroup

	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < searchesPerGoro; i++ {
				u := corpus.Users[(s*7+i)%len(corpus.Users)]
				q := workload.Categories[i%len(workload.Categories)]
				if _, err := eng.SearchCtx(context.Background(), u, q); err != nil {
					errCh <- fmt.Errorf("searcher %d: %w", s, err)
					return
				}
				eng.Version()
			}
			errCh <- nil
		}(s)
	}
	for a := 0; a < appliers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				muts := make([]Mutation, tagsPerBatch)
				for i := range muts {
					u := corpus.Users[(a*13+b*5+i)%len(corpus.Users)]
					d := corpus.Destinations[(a+b*3+i)%len(corpus.Destinations)]
					tag := workload.Categories[(b+i)%len(workload.Categories)]
					muts[i] = tagMutation(LinkID(nextLink.Add(1)), u, d, tag)
				}
				if err := eng.Apply(muts); err != nil {
					errCh <- fmt.Errorf("applier %d: %w", a, err)
					return
				}
			}
			errCh <- nil
		}(a)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := eng.Version(), uint64(appliers*batchesPer); got != want {
		t.Errorf("engine version %d after %d batches, want %d", got, want, want)
	}
	// Convergence: the live engine now answers exactly like a fresh build
	// over its final graph.
	fresh, err := New(eng.Graph(), liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range corpus.Users[:8] {
		q := workload.Categories[0]
		live, err := eng.SearchCtx(context.Background(), u, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SearchCtx(context.Background(), u, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Results(), want.Results()) {
			t.Errorf("user %d: post-storm results diverge from fresh build", u)
		}
		if live.Stats == nil || live.Stats.SnapshotVersion != uint64(appliers*batchesPer) {
			t.Errorf("user %d: stats %+v, want snapshot version %d",
				u, live.Stats, appliers*batchesPer)
		}
	}
}

// TestEngineApplyEmptyAndError covers the no-op and failure paths: an
// empty batch publishes nothing, and a bad mutation leaves the engine on
// its prior state.
func TestEngineApplyEmptyAndError(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if eng.Version() != 0 {
		t.Errorf("empty Apply bumped version to %d", eng.Version())
	}
	// Dangling endpoint: the batch must be rejected atomically.
	bad := tagMutation(corpus.Graph.MaxLinkID()+1, 999999, corpus.Destinations[0], "x")
	if err := eng.Apply([]Mutation{bad}); err == nil {
		t.Fatal("mutation with dangling endpoint accepted")
	}
	// An addition the engine's graph already contains must be rejected
	// loudly — silently replaying it would double-count the activity in
	// the index's duplicate refcounts.
	dup := Mutation{Kind: graph.MutAddLink, Link: corpus.Graph.Links()[0].Clone()}
	if err := eng.Apply([]Mutation{dup}); err == nil {
		t.Fatal("mutation already present in the serving graph accepted")
	}
	if eng.Version() != 0 {
		t.Errorf("failed Apply bumped version to %d", eng.Version())
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], workload.Categories[0]); err != nil {
		t.Errorf("engine unusable after rejected Apply: %v", err)
	}
	// Remove-then-re-add of the same id inside one batch is a legitimate
	// recorded sequence and must pass validation.
	link := corpus.Graph.Links()[0]
	if err := eng.Apply([]Mutation{
		{Kind: graph.MutRemoveLink, Link: link.Clone()},
		{Kind: graph.MutAddLink, Link: link.Clone()},
	}); err != nil {
		t.Fatalf("remove-then-re-add batch rejected: %v", err)
	}
}

// TestEngineApplyRejectsUnmaintainable pins the two consolidation hazards
// Apply must refuse: replaying an already-absorbed changelog, and
// promoting an already-linked node to a user (the index cannot recover
// the node's pre-existing links from mutations alone).
func TestEngineApplyRejectsUnmaintainable(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}

	scratch := corpus.Graph.Clone()
	log := graph.RecordInto(scratch)
	ext := scratch.Links()[0].Clone()
	ext.AddAttr("note", "edited")
	if err := scratch.PutLink(ext); err != nil {
		t.Fatal(err)
	}
	muts := log.Drain()
	if err := eng.Apply(muts); err != nil {
		t.Fatalf("first application of consolidation batch: %v", err)
	}
	if err := eng.Apply(muts); err == nil {
		t.Fatal("replayed consolidation batch accepted")
	}

	scratch2 := eng.Graph().Clone()
	log2 := graph.RecordInto(scratch2)
	scratch2.PutNode(graph.NewNode(corpus.Destinations[0], TypeUser))
	if err := eng.Apply(log2.Drain()); err == nil {
		t.Fatal("promotion of a linked destination node to user accepted")
	}
}
