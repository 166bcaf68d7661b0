package socialscope

import (
	"context"
	"reflect"
	"testing"

	"socialscope/internal/workload"
)

// topkCorpus is a tagging-heavy travel site so category keywords hit the
// activity-driven index.
func topkCorpus(t testing.TB) *workload.TravelCorpus {
	t.Helper()
	c, err := workload.Travel(workload.TravelConfig{
		Users: 50, Destinations: 30, Seed: 7, VisitsPerUser: 8, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineTopKStrategiesAgree runs the same keyword query through every
// index-backed strategy: the rankings must match the exhaustive baseline
// exactly, and the early-terminating ones must report less work.
func TestEngineTopKStrategiesAgree(t *testing.T) {
	corpus := topkCorpus(t)
	query := workload.Categories[0] + " " + workload.Categories[4]
	baseline := make(map[int][]struct {
		item  NodeID
		score float64
	})
	for _, strat := range []TopKStrategy{TopKExhaustive, TopKTA, TopKNRA} {
		eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: strat})
		if err != nil {
			t.Fatal(err)
		}
		for ui, u := range corpus.Users[:10] {
			resp, err := eng.SearchCtx(context.Background(), u, query)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Stats == nil || resp.Stats.Strategy != strat {
				t.Fatalf("%s: stats missing or mislabeled: %+v", strat, resp.Stats)
			}
			var got []struct {
				item  NodeID
				score float64
			}
			for _, r := range resp.Results() {
				got = append(got, struct {
					item  NodeID
					score float64
				}{r.Item, r.Score})
			}
			if strat == TopKExhaustive {
				baseline[ui] = got
			} else if !reflect.DeepEqual(baseline[ui], got) {
				t.Errorf("%s user %d: results diverge from exhaustive\n got %v\nwant %v",
					strat, u, got, baseline[ui])
			}
		}
	}
}

// TestEngineTopKSavesWork asserts the facade path inherits the early
// termination: TA scans fewer postings than the exhaustive strategy.
func TestEngineTopKSavesWork(t *testing.T) {
	corpus := topkCorpus(t)
	query := workload.Categories[0]
	work := make(map[TopKStrategy]int)
	for _, strat := range []TopKStrategy{TopKExhaustive, TopKTA} {
		eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: strat})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range corpus.Users[:10] {
			resp, err := eng.SearchCtx(context.Background(), u, query)
			if err != nil {
				t.Fatal(err)
			}
			work[strat] += resp.Stats.PostingsScanned
		}
	}
	if work[TopKTA] >= work[TopKExhaustive] {
		t.Errorf("TA scanned %d postings, exhaustive %d — no savings through the facade",
			work[TopKTA], work[TopKExhaustive])
	}
}

// TestEngineTopKFallsBack checks structural and empty queries keep using
// the fusion path even when an index strategy is configured.
func TestEngineTopKFallsBack(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: TopKTA})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "city:paris"} {
		resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], q)
		if err != nil {
			t.Fatalf("fallback query %q: %v", q, err)
		}
		if resp.Stats != nil {
			t.Errorf("query %q should not have used the index path", q)
		}
	}
}

// TestEngineTopKBadCluster pins that a configuration no tagged query
// could run with fails at construction, not at the first tagged query.
func TestEngineTopKBadCluster(t *testing.T) {
	corpus := topkCorpus(t)
	for _, cfg := range []Config{
		{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "bogus"},
		{ItemType: "destination", TopK: TopKNRA + 1},
	} {
		if _, err := New(corpus.Graph, cfg); err == nil {
			t.Errorf("New accepted TopK %v, ClusterStrategy %q", cfg.TopK, cfg.ClusterStrategy)
		}
	}
}

// TestEngineTopKConcurrentSearch serves tagged queries from multiple
// goroutines — meaningful under -race, guarding the lazily built
// processor.
func TestEngineTopKConcurrentSearch(t *testing.T) {
	corpus := topkCorpus(t)
	eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: TopKTA})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(u NodeID) {
			_, err := eng.SearchCtx(context.Background(), u, workload.Categories[0])
			done <- err
		}(corpus.Users[i])
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

func TestTopKStrategyString(t *testing.T) {
	for s, want := range map[TopKStrategy]string{
		TopKOff: "off", TopKExhaustive: "exhaustive", TopKTA: "ta",
		TopKNRA: "nra", TopKStrategy(9): "unknown",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
