package store

import (
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/vfs"
	"socialscope/internal/workload"
)

// ledgerGraph generates the bench/ ledger's corpus: 800 nodes and 8,654
// links, a checkpoint of about 310 KB.
func ledgerGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	c, err := workload.Travel(workload.TravelConfig{
		Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Graph
}

// BenchmarkCheckpointSave is a full checkpoint of the ledger's corpus on
// the real filesystem, as a durable leader writes its genesis: encode,
// write, fsync, rename and the manifest.
func BenchmarkCheckpointSave(b *testing.B) {
	g := ledgerGraph(b)
	dir := b.TempDir()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCheckpointer(vfs.OS{}, dir, 0, uint64(i), reg)
		if err := c.Save(g, Meta{Version: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadLatest reads that checkpoint back: the file read, its
// checks, the trie decode, the adjacency rebuild and Validate.
func BenchmarkLoadLatest(b *testing.B) {
	g := ledgerGraph(b)
	dir := b.TempDir()
	if err := NewCheckpointer(vfs.OS{}, dir, 0, 0, obs.NewRegistry()).Save(g, Meta{Version: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadLatest(vfs.OS{}, dir); err != nil {
			b.Fatal(err)
		}
	}
}
