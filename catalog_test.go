package socialscope

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// catalogQueries are fusion-path reads that depend on every part of the
// discovery catalog: scope, BM25 text, friends' acted-item text and the
// expert scan over graph.TypeItem nodes. The zz words are planted by the
// life-cycle batches below, so a stale catalog answers them differently.
var catalogQueries = []string{
	"",
	"type:destination rating>=0.5",
	"museum type:destination rating>=0.3",
	"zzplanted type:destination",
	"zzexpert type:destination",
}

// assertFusionMatchesFresh requires every catalog query, for the first
// users, to give the live engine exactly the MSG a fresh engine over the
// live engine's current graph gives.
func assertFusionMatchesFresh(t *testing.T, eng *Engine, users []NodeID) {
	t.Helper()
	fresh := discovery.NewDiscoverer(eng.Graph(), eng.cfg.ItemType)
	live := eng.state.Load().disc
	for _, u := range users {
		for _, text := range catalogQueries {
			q, err := discovery.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			got, err := live.Discover(u, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Discover(u, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) || !reflect.DeepEqual(got.Basis, want.Basis) {
				t.Fatalf("user %d %q: live %+v %+v, fresh %+v %+v", u, text, got.Basis, got.Results, want.Basis, want.Results)
			}
			assertMSGProvenance(t, got)
		}
	}
}

// TestEngineCatalogLifeCycle pins when Apply carries the discovery
// catalog and when it rebuilds it: carried (pointer-equal) across batches
// that touch no item node, rebuilt by any batch that adds, consolidates or
// removes a node typed destination or item — a consolidation that changes
// an item's text without restating its types included. After every batch
// the fusion path answers exactly as a fresh build does.
func TestEngineCatalogLifeCycle(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	users := corpus.Users[:6]
	scratch := corpus.Graph.Clone()
	log := graph.RecordInto(scratch)
	nextNode, nextLink := scratch.MaxNodeID(), scratch.MaxLinkID()
	link := func(src, tgt NodeID, types ...string) {
		nextLink++
		if err := scratch.AddLink(graph.NewLink(nextLink, src, tgt, types...)); err != nil {
			t.Fatal(err)
		}
	}
	node := func(kv []string, types ...string) NodeID {
		nextNode++
		n := graph.NewNode(nextNode, types...)
		for i := 0; i+1 < len(kv); i += 2 {
			n.Attrs.Add(kv[i], kv[i+1])
		}
		if err := scratch.AddNode(n); err != nil {
			t.Fatal(err)
		}
		return nextNode
	}
	put := func(id NodeID, key, value string, types ...string) {
		n := graph.NewNode(id, types...)
		n.Attrs.Add(key, value)
		scratch.PutNode(n)
	}
	var genericItem NodeID
	steps := []struct {
		name    string
		edit    func()
		carried bool
	}{
		{"tag links", func() {
			link(users[1], corpus.Destinations[0], TypeAct, SubtypeTag)
			link(users[2], corpus.Destinations[1], TypeAct, SubtypeVisit)
		}, true},
		{"new user and connections", func() {
			u := node([]string{"name", "Newcomer"}, TypeUser)
			link(u, users[0], TypeConnect, SubtypeFriend)
			link(u, corpus.Destinations[2], TypeAct, SubtypeVisit)
		}, true},
		{"user consolidation", func() { put(users[3], "interests", "zzplanted") }, true},
		{"new destination", func() {
			d := node([]string{"keywords", "museum zzplanted", "rating", "0.9"}, TypeItem, "destination")
			link(users[1], d, TypeAct, SubtypeVisit)
		}, false},
		{"destination text without its types", func() {
			put(corpus.Destinations[3], "keywords", "zzplanted")
		}, false},
		{"new item that is not a destination", func() {
			genericItem = node([]string{"keywords", "zzexpert"}, TypeItem)
			link(users[4], genericItem, TypeAct, SubtypeVisit)
			link(users[4], corpus.Destinations[4], TypeAct, SubtypeVisit)
		}, false},
		{"item text without its types", func() { put(genericItem, "keywords", "museum") }, false},
		{"item removal", func() { scratch.RemoveNode(corpus.Destinations[5]) }, false},
		{"more tag links", func() { link(users[5], corpus.Destinations[6], TypeAct, SubtypeTag) }, true},
	}
	assertFusionMatchesFresh(t, eng, users) // builds the catalog
	for _, step := range steps {
		step.edit()
		before := eng.state.Load().disc
		if err := eng.Apply(log.Drain()); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := eng.state.Load().disc
		if got := after.SharesCatalog(before); got != step.carried {
			t.Fatalf("%s: catalog carried = %v, want %v", step.name, got, step.carried)
		}
		assertFusionMatchesFresh(t, eng, users)
		if !after.SharesCatalog(eng.state.Load().disc) {
			t.Fatalf("%s: no catalog built by the fusion reads", step.name)
		}
	}
}

// TestEngineCatalogConcurrentFirstBuild races the lazy catalog build of
// fresh snapshots against Apply: fusion readers start on a snapshot whose
// catalog nobody has built while a writer publishes batches that carry or
// rebuild it. Run under -race it is the gate on the build's publication;
// in any mode the final snapshot must answer as a fresh build does.
func TestEngineCatalogConcurrentFirstBuild(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	const readers, batches = 4, 12
	scratch := corpus.Graph.Clone()
	log := graph.RecordInto(scratch)
	var muts [][]Mutation
	nextNode, nextLink := scratch.MaxNodeID(), scratch.MaxLinkID()
	for b := 0; b < batches; b++ {
		nextLink++
		u := corpus.Users[b%len(corpus.Users)]
		if err := scratch.AddLink(graph.NewLink(nextLink, u, corpus.Destinations[b%len(corpus.Destinations)],
			TypeAct, SubtypeVisit)); err != nil {
			t.Fatal(err)
		}
		if b%3 == 0 { // every third batch also adds a destination
			nextNode++
			d := graph.NewNode(nextNode, TypeItem, "destination")
			d.Attrs.Add("keywords", workload.Categories[b%len(workload.Categories)])
			if err := scratch.AddNode(d); err != nil {
				t.Fatal(err)
			}
		}
		muts = append(muts, log.Drain())
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	start := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < 3*batches; i++ {
				u := corpus.Users[(r*11+i)%len(corpus.Users)]
				text := fmt.Sprintf("%s type:destination", workload.Categories[i%len(workload.Categories)])
				if _, err := eng.SearchCtx(context.Background(), u, text); err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, batch := range muts {
			if err := eng.Apply(batch); err != nil {
				errs <- fmt.Errorf("apply: %w", err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertFusionMatchesFresh(t, eng, corpus.Users[:4])
}
