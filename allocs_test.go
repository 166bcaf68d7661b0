package socialscope

import (
	"context"
	"testing"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// Allocation pins: each bound is about 1.25× what the path allocates today,
// so an allocation diet cannot silently regress. The corpus is the one the
// bench/ ledger serves, and the figures are per call, averaged over a fixed
// rotation of users.

func allocPinEngine(t *testing.T) (*Engine, []NodeID) {
	t.Helper()
	eng, users := benchCorpusEngine(t)
	return eng, users[:16]
}

// benchCorpusEngine builds an engine over the bench/ ledger's corpus and
// returns it with every user of the corpus.
func benchCorpusEngine(t *testing.T) (*Engine, []NodeID) {
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

func TestQueryCtxAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	q, err := discovery.ParseQuery("museum family")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	pinAllocs(t, "Engine.QueryCtx", 700, func() {
		if _, err := eng.QueryCtx(context.Background(), users[i%len(users)], q); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

func TestCollaborativeFilteringAllocsPinned(t *testing.T) {
	eng, users := allocPinEngine(t)
	for _, c := range []struct {
		name  string
		cf    func(*graph.Graph, NodeID, discovery.CFConfig) ([]discovery.Recommendation, error)
		bound float64
	}{
		{"discovery.CollaborativeFiltering", discovery.CollaborativeFiltering, 35},
		// The algebra program is the Figure 2 reproduction and the plan's
		// oracle; its pin keeps the reproduction from regressing unseen.
		{"discovery.CollaborativeFilteringAlgebra", discovery.CollaborativeFilteringAlgebra, 120000},
	} {
		i := 0
		pinAllocs(t, c.name, c.bound, func() {
			if _, err := c.cf(eng.Graph(), users[i%len(users)], discovery.CFConfig{
				SimThreshold: eng.cfg.MatchThreshold, ItemType: eng.cfg.ItemType,
			}); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
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
