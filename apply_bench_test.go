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
// in process: an engine over the ledger's corpus, its index and the
// serving snapshot's neighbourhood view built by one tagged read, and a
// round of pregenerated TaggingStream batches.
type applyFixture struct {
	eng     *Engine
	warm    *engineState
	batches [][]graph.Mutation
	next    int
}

func newApplyFixture(t testing.TB, size int) *applyFixture {
	t.Helper()
	eng, users := benchCorpusEngine(t)
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
// durable_mixed load, 64 for a burst.
func BenchmarkEngineApply(b *testing.B) {
	for _, size := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("muts=%d", size), func(b *testing.B) {
			f := newApplyFixture(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.apply(b)
			}
		})
	}
}
