package socialscope

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
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

// The Builder buffers the corpus and builds each of the graph's tries in
// one go, every node and adjacency list exact-size, and catalog link
// types are shared, not copied: 24,576 allocations with id-ordered trie
// paths (32,192 on hashed ones), where inserting one element at a time
// in a bulk window took 41,664.
func TestBenchCorpusBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	pinAllocs(t, "workload.Travel (bench corpus)", 30720, func() {
		if _, err := benchCorpus(); err != nil {
			t.Fatal(err)
		}
	})
}

// The first read of a snapshot's neighbourhood view derives it in one pass
// over the adjacency and builds each of its two tries in one go (994
// allocations with id-ordered trie paths, 1,357 on hashed ones; 1,796
// through transient writes). A ShallowClone of a graph
// no reader has asked for its view carries none, so every call builds.
func TestNeighbourhoodBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "graph neighbourhood view build (bench corpus)", 1243, func() {
		corpus.Graph.ShallowClone().Acts(corpus.Users[0])
	})
}

// Extract groups its records with one sort per family, stores each vector
// once, exact-size, every network in one shared vector, and builds each
// trie in one go: 1,540 allocations with id-ordered trie paths (2,090
// on hashed ones), where per-vector networks and transient writes took
// 3,353.
func TestExtractAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "index.Extract (bench corpus)", 1925, func() {
		index.Extract(corpus.Graph)
	})
}

// A cold per-user index build counts over dense tables with per-worker
// scratch, stores each list once, exact-size, and builds each tag's
// cluster → list trie in one go: ~8.3k allocations on the bench corpus
// with one worker (AllocsPerRun runs at GOMAXPROCS 1) and id-ordered trie
// paths (~10.2k on hashed ones), where sealing through transient writes
// took ~13.2k and the map-based build ~31k.
func TestIndexBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	d := index.Extract(corpus.Graph)
	cl, err := cluster.Build(corpus.Graph, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	pinAllocs(t, "index.Build peruser (bench corpus)", 10354, func() {
		if _, err := index.Build(d, cl, scoring.CountF); err != nil {
			t.Fatal(err)
		}
	})
}

// A follower's start on the ledger's corpus reads the checkpoint into one
// buffer sized by Size, decodes every trie node at its final size, takes
// each link's interned body from the lookups its decode already made, and
// groups the adjacency in one pass over id-ordered links: 20,432
// allocations with id-ordered trie paths, 16 ids to a leaf (28,056 on
// hashed paths, which scattered dense ids over thousands of 2–3-entry
// nodes), where reading through io.ReadAll, growing every node by appends
// and sorting and grouping through maps took 38,450.
func TestOpenFollowerAllocsPinned(t *testing.T) {
	dir := followerDir(t)
	pinAllocs(t, "OpenFollower (bench corpus)", 25540, func() { openFollower(t, dir) })
}

// One Engine.Apply of fresh taggings at the coalescer's flush sizes: the
// graph replay, the view patch and the index delta each claim a touched
// trie node once per batch, inside their transient windows, copying only
// the slices they write. Pins are 1.25× the readings on id-ordered trie
// paths (340, 555 and 1461 allocations at 8, 16 and 64, and 109.4 kB at
// 16; 393, 704, 2170 and 118.5 kB on hashed paths), except at 1, whose
// pin dates from hashed paths (97 allocations then, 102 now). Before
// claims copied lazily and stored taggings shared their bodies they read
// 128, 527, 932 and 2749 allocations, 140.6 kB at 16.
func TestApplyAllocsPinned(t *testing.T) {
	for _, pin := range []struct {
		size  int
		bound float64
	}{{1, 121}, {8, 425}, {16, 694}, {64, 1826}} {
		f := newApplyFixture(t, pin.size, false)
		pinAllocs(t, fmt.Sprintf("Engine.Apply (%d mutations)", pin.size), pin.bound, func() {
			f.apply(t)
		})
	}
	// Bytes too, at the coalescer's common flush size: applied on the
	// persistent per-write path instead, a batch allocates about as often
	// but ~1.6× the bytes, which the allocation pin alone would let pass.
	f := newApplyFixture(t, 16, false)
	pinBytes(t, "Engine.Apply (16 mutations)", 136690, func() { f.apply(t) })
	// After Analyze the batch lands on the one serving graph, so it costs
	// what it costs a plain engine.
	fa := newApplyFixture(t, 16, true)
	pinAllocs(t, "Engine.Apply (16 mutations, analyzed)", 696, func() { fa.apply(t) })
	pinBytes(t, "Engine.Apply (16 mutations, analyzed)", 138260, func() { fa.apply(t) })
}
