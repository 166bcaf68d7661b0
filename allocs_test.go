package socialscope

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/workload"
)

// Allocation pins: each bound is about 1.25× what the path allocates today,
// so an allocation diet cannot silently regress. The corpus is the one the
// bench/ ledger serves, and the figures are per call, averaged over a fixed
// rotation of users.

func allocPinEngine(t testing.TB) (*Engine, []NodeID) {
	t.Helper()
	eng, users := benchCorpusEngine(t)
	return eng, users[:16]
}

// benchCorpusEngine builds an engine over the bench/ ledger's corpus and
// returns it with every user of the corpus.
func benchCorpusEngine(t testing.TB) (*Engine, []NodeID) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "peruser"})
	if err != nil {
		t.Fatal(err)
	}
	return eng, corpus.Users
}

// benchCorpus generates the bench/ ledger's corpus.
func benchCorpus() (*workload.TravelCorpus, error) {
	return workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
}

func pinAllocs(t *testing.T, name string, bound float64, f func()) {
	t.Helper()
	got := testing.AllocsPerRun(16, f)
	t.Logf("%s: %.0f allocs per call (bound %.0f)", name, got, bound)
	if got > bound {
		t.Errorf("%s allocates %.0f per call, over its pin of %.0f", name, got, bound)
	}
}

// pinBytes is pinAllocs for the bytes allocated per call, averaged over
// the same number of runs after one warm-up call.
func pinBytes(t *testing.T, name string, bound float64, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 16
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%s: %.0f B per call (bound %.0f)", name, got, bound)
	if got > bound {
		t.Errorf("%s allocates %.0f B per call, over its pin of %.0f", name, got, bound)
	}
}

func TestQueryCtxAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	q, err := discovery.ParseQuery("museum family")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	pinAllocs(t, "Engine.QueryCtx", 76, func() {
		if _, err := eng.QueryCtx(context.Background(), users[i%len(users)], q); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// The fusion path reads its discoverer's item catalog: no scope graph, no
// tokenizing per query. AllocsPerRun's warm-up call builds the catalog.
func TestFusionAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	who, qs := fusionReads(t, users, 64)
	d := eng.state.Load().disc
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		read  func(NodeID, discovery.Query) error
		bound float64
	}{
		{"discovery.Discoverer.Discover", func(u NodeID, q discovery.Query) error {
			_, err := d.Discover(u, q)
			return err
		}, 21},
		{"Engine.QueryCtx (fusion)", func(u NodeID, q discovery.Query) error {
			_, err := eng.QueryCtx(ctx, u, q)
			return err
		}, 103},
	} {
		i := 0
		pinAllocs(t, c.name, c.bound, func() {
			if err := c.read(who[i%len(who)], qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
}

// The plan's scratch is pooled, so a call allocates only the
// recommendations, their shared basis and the strategy name. A -race build
// drops pooled scratch at random, so the plan's pins hold in normal builds.
func TestCollaborativeFilteringAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	cfg := discovery.CFConfig{SimThreshold: eng.cfg.MatchThreshold, ItemType: eng.cfg.ItemType}
	rotate := func(cf func(*graph.Graph, NodeID, discovery.CFConfig) ([]discovery.Recommendation, error)) func() {
		i := 0
		return func() {
			if _, err := cf(eng.Graph(), users[i%len(users)], cfg); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	if !raceEnabled {
		pinAllocs(t, "discovery.CollaborativeFiltering", 3, rotate(discovery.CollaborativeFiltering))
		pinBytes(t, "discovery.CollaborativeFiltering", 305, rotate(discovery.CollaborativeFiltering))
	}
	// The algebra program is the Figure 2 reproduction and the plan's
	// oracle; its pin keeps the reproduction from regressing unseen.
	pinAllocs(t, "discovery.CollaborativeFilteringAlgebra", 120000, rotate(discovery.CollaborativeFilteringAlgebra))
}

// Adjacency reads hand out the stored slice: no lookup, no allocation.
func TestAdjacencyReadAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	g := eng.Graph()
	i := 0
	pinAllocs(t, "graph.Graph.Out+In", 0, func() {
		u := users[i%len(users)]
		if len(g.Out(u))+len(g.In(u)) == 0 {
			t.Fatalf("user %d has no links", u)
		}
		i++
	})
}

// Building the corpus runs in the Builder's bulk window, where adjacency
// slices grow in place and catalog link types are shared, not copied.
func TestBenchCorpusBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	pinAllocs(t, "workload.Travel (bench corpus)", 57000, func() {
		if _, err := benchCorpus(); err != nil {
			t.Fatal(err)
		}
	})
}

// The first read of a snapshot's neighbourhood view derives it in one pass
// over the adjacency. A ShallowClone of a graph no reader has asked for
// its view carries none, so every call builds.
func TestNeighbourhoodBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "graph neighbourhood view build (bench corpus)", 2250, func() {
		corpus.Graph.ShallowClone().Acts(corpus.Users[0])
	})
}

// Extract groups its records with one sort per family and stores each
// vector once, exact-size.
func TestExtractAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "index.Extract (bench corpus)", 7450, func() {
		index.Extract(corpus.Graph)
	})
}

// One Engine.Apply of fresh taggings at the coalescer's flush sizes: the
// graph replay, the view patch and the index delta each claim a touched
// trie node once per batch, inside their transient windows.
func TestApplyAllocsPinned(t *testing.T) {
	for _, pin := range []struct {
		size  int
		bound float64
	}{{1, 160}, {8, 659}, {16, 1165}, {64, 3436}} {
		f := newApplyFixture(t, pin.size, false)
		pinAllocs(t, fmt.Sprintf("Engine.Apply (%d mutations)", pin.size), pin.bound, func() {
			f.apply(t)
		})
	}
	// Bytes too, at the coalescer's common flush size: applied on the
	// persistent per-write path instead, a batch allocates about as often
	// but ~1.6× the bytes, which the allocation pin alone would let pass.
	f := newApplyFixture(t, 16, false)
	pinBytes(t, "Engine.Apply (16 mutations)", 175800, func() { f.apply(t) })
	// After Analyze the batch lands on the one serving graph, so it costs
	// what it costs a plain engine.
	fa := newApplyFixture(t, 16, true)
	pinAllocs(t, "Engine.Apply (16 mutations, analyzed)", 1180, func() { fa.apply(t) })
	pinBytes(t, "Engine.Apply (16 mutations, analyzed)", 179300, func() { fa.apply(t) })
}
