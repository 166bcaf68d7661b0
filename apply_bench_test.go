package socialscope

import (
	"context"
	"fmt"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// applyRound is how many mutations an applyFixture lands before it
// rewinds the engine to its warmed state, so the graph a batch meets
// grows by at most this much however many batches a run applies.
const applyRound = 256

// applyFixture is the write side of the bench/ ledger's mixed workloads
// in process: an engine over the ledger's corpus (analyzed or not), its
// index and the serving snapshot's neighbourhood view built by one tagged
// read, and a round of pregenerated TaggingStream batches.
type applyFixture struct {
	eng     *Engine
	warm    *engineState
	batches [][]graph.Mutation
	next    int
}

func newApplyFixture(t testing.TB, size int, analyzed bool) *applyFixture {
	t.Helper()
	eng, users := benchCorpusEngine(t)
	if analyzed {
		if err := eng.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SearchCtx(context.Background(), users[0], "museum family"); err != nil {
		t.Fatal(err)
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewTaggingStream(eng.Graph(), corpus.Users, corpus.Destinations, workload.Categories, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &applyFixture{eng: eng, warm: eng.state.Load()}
	for i := 0; i < max(1, applyRound/size); i++ {
		f.batches = append(f.batches, stream.Batch(size))
	}
	return f
}

// apply lands the round's next batch. After the last one it republishes
// the warmed state, which the engine's snapshots left untouched, so the
// round's batches are fresh to the engine again.
func (f *applyFixture) apply(t testing.TB) {
	if f.next == len(f.batches) {
		f.eng.publish(f.warm)
		f.next = 0
	}
	if err := f.eng.Apply(f.batches[f.next]); err != nil {
		t.Fatal(err)
	}
	f.next++
}

// BenchmarkEngineApply is one in-memory Engine.Apply of fresh taggings at
// the batch sizes the coalescer flushes: 1 to 16 under the ledger's
// durable_mixed load, 64 for a burst; on a plain engine and on one that
// has run Analyze.
func BenchmarkEngineApply(b *testing.B) {
	for _, analyzed := range []bool{false, true} {
		for _, size := range []int{1, 8, 16, 64} {
			name := fmt.Sprintf("muts=%d", size)
			if analyzed {
				name = "analyzed/" + name
			}
			b.Run(name, func(b *testing.B) {
				f := newApplyFixture(b, size, analyzed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.apply(b)
				}
			})
		}
	}
}

// BenchmarkEngineAnalyze is one Engine.Analyze of the bench/ ledger's
// corpus: LDA topics and Jaccard matches derived into the serving graph
// of a fresh engine (New wraps the corpus graph in O(1)).
func BenchmarkEngineAnalyze(b *testing.B) {
	eng, _ := benchCorpusEngine(b)
	g := eng.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(g, eng.cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}
