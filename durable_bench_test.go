package socialscope

import "testing"

// followerDir opens a durable leader over the bench/ ledger's corpus in a
// fresh directory, which writes the genesis checkpoint, and returns the
// directory: the tree a follower opens beside a running leader, as in the
// ledger's routed_mixed set-up. The leader closes when the test ends.
func followerDir(t testing.TB) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a 600-user corpus")
	}
	corpus, err := benchCorpus()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	leader, err := OpenDurable(dir, corpus.Graph, followerConfig(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := leader.Close(); err != nil {
			t.Error(err)
		}
	})
	return dir
}

// followerConfig is the engine configuration the bench/ ledger serves.
func followerConfig() Config {
	return Config{ItemType: "destination", TopK: TopKTA, ClusterStrategy: "peruser"}
}

// openFollower opens a follower on dir, as a router's replica does at
// start-up: load the checkpoint chain, then catch up on the WAL.
func openFollower(t testing.TB, dir string) {
	t.Helper()
	if _, err := OpenFollower(dir, followerConfig(), DurableOptions{}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOpenFollower is a follower's start on the ledger's corpus: the
// checkpoint read, decoded and validated, the adjacency rebuilt and the
// empty WAL tail polled. It is the largest phase of routed_mixed's set-up.
func BenchmarkOpenFollower(b *testing.B) {
	dir := followerDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openFollower(b, dir)
	}
}
