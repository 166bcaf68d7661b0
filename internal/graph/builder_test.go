package graph_test

import (
	"bytes"
	"reflect"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

// TestBuilderMatchesPerWrite holds the Builder's one-go build to the
// graph the same elements give when added one write at a time: equal
// content, the same Range order in all four tries (so the same trie
// shapes), and the same checkpoint bytes. The ledger corpus is built
// wholly before the first ask; the InterestBias corpus asks (Peek)
// midway, so its visits write through to the built graph.
func TestBuilderMatchesPerWrite(t *testing.T) {
	for name, cfg := range map[string]workload.TravelConfig{
		"ledger":   {Users: 600, Destinations: 200, VisitsPerUser: 8, TagFraction: 0.8, Seed: 42},
		"interest": {Users: 300, Destinations: 80, VisitsPerUser: 8, InterestBias: 0.7, Seed: 5},
	} {
		corpus, err := workload.Travel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		built := corpus.Graph
		perWrite := graph.New()
		for _, n := range built.Nodes() {
			if err := perWrite.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range built.Links() {
			if err := perWrite.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := built.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !built.Equal(perWrite) {
			t.Fatalf("%s: built graph differs from the per-write one", name)
		}
		bn, bl, bo, bi := graph.TrieOrders(built)
		pn, pl, po, pi := graph.TrieOrders(perWrite)
		for _, c := range []struct {
			trie      string
			got, want any
		}{{"nodes", bn, pn}, {"links", bl, pl}, {"out", bo, po}, {"in", bi, pi}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s trie Range order differs", name, c.trie)
			}
		}
		for _, u := range corpus.Users {
			if !reflect.DeepEqual(built.Out(u), perWrite.Out(u)) || !reflect.DeepEqual(built.In(u), perWrite.In(u)) {
				t.Fatalf("%s: adjacency of %d differs", name, u)
			}
		}
		got := graph.NewCkptWriter().AppendCheckpoint(nil, built)
		want := graph.NewCkptWriter().AppendCheckpoint(nil, perWrite)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: checkpoint bytes differ (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}
