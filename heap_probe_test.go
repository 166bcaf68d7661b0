package socialscope

import (
	"context"
	"runtime"
	"testing"

	"socialscope/internal/workload"
)

// Heap probe: what a durable leader of the bench/ ledger's mixed workloads
// holds. Those workloads run a closed loop, so a faster read buys more
// 8-mutation writes per run, and their live_heap_mb is about
// base + writes × retained-per-batch. The probe measures both terms on
// the ledger's corpus and engine configuration, and fails when either
// grows past about 1.25× its figure at the time of writing.
const (
	probeBatches   = 1000
	probeBatchSize = 8
	// Bounds: 1.25× the figures measured when the neighbourhood view and
	// the vector-backed index substrate landed, and for retention when
	// stored links began sharing attribute sets (linux/amd64, go1.24).
	probeBaseBound     = 1.25 * 3.12 * (1 << 20) // bytes
	probeRetainedBound = 1.25 * 2915             // bytes per batch
	// probeAnalyzedBound is 1.25× an analyzed engine's heap once Analyze
	// came to enrich the one serving graph instead of a deep copy of it.
	probeAnalyzedBound = 1.25 * 3.94 * (1 << 20) // bytes
)

func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func TestHeapProbeDurableLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 600-user durable leader and applies 1000 batches")
	}
	before := liveHeap()
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDurable(t.TempDir(), corpus.Graph,
		Config{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "peruser"},
		DurableOptions{CheckpointEvery: 20})
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
	base := liveHeap() - before
	for i := 0; i < probeBatches; i++ {
		if err := eng.Apply(stream.Batch(probeBatchSize)); err != nil {
			t.Fatal(err)
		}
	}
	perBatch := (liveHeap() - before - base) / probeBatches
	t.Logf("durable leader: base %.2f MB, retained %.0f B per %d-mutation batch", base/(1<<20), perBatch, probeBatchSize)
	if base > probeBaseBound {
		t.Errorf("base heap %.2f MB, over its bound of %.2f MB", base/(1<<20), probeBaseBound/(1<<20))
	}
	if perBatch > probeRetainedBound {
		t.Errorf("%.0f B retained per batch, over its bound of %.0f B", perBatch, probeRetainedBound)
	}
	runtime.KeepAlive(corpus)
}

// An analyzed engine holds one graph: the corpus, the derived topics,
// belong and match links sharing its storage, and the index one tagged
// query builds over them.
func TestHeapProbeAnalyzedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and analyzes a 600-user engine")
	}
	before := liveHeap()
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "peruser"})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchCtx(context.Background(), corpus.Users[0], "museum family"); err != nil {
		t.Fatal(err)
	}
	heap := liveHeap() - before
	t.Logf("analyzed engine: %.2f MB", heap/(1<<20))
	if heap > probeAnalyzedBound {
		t.Errorf("analyzed engine holds %.2f MB, over its bound of %.2f MB", heap/(1<<20), probeAnalyzedBound/(1<<20))
	}
	runtime.KeepAlive(eng)
}
