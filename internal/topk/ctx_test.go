package topk

import (
	"context"
	"errors"
	"slices"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// TestTopKCtxCancellation verifies every strategy's accumulation loop
// honors an expired context instead of scanning to completion.
func TestTopKCtxCancellation(t *testing.T) {
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 40, Items: 60, Tags: 8, Seed: 9, TagsPerUser: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := index.Extract(corpus.Graph)
	cl, err := cluster.Build(corpus.Graph, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(data, cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := New(ix, scoring.SumG)
	if err != nil {
		t.Fatal(err)
	}
	tags := data.Tags[:3]
	user := data.Users[0]

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, strat := range []Strategy{Exhaustive, TA, NRA} {
		if _, _, err := proc.TopKCtx(cancelled, user, tags, 10, strat); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", strat, err)
		}
		// And a live context answers exactly.
		want := data.ExactTopK(user, tags, 10, scoring.CountF, scoring.SumG)
		got, _, err := proc.TopKCtx(context.Background(), user, tags, 10, strat)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s under a live context: got %v, want %v", strat, got, want)
		}
	}
}
