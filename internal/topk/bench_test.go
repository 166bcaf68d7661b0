package topk

import (
	"context"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
	"socialscope/internal/workload"
)

// benchSetup builds the default tagging workload once per benchmark.
func benchSetup(b *testing.B) (*Processor, []string) {
	b.Helper()
	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 120, Items: 300, Tags: 12, Seed: 42, TagsPerUser: 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.Build(tagging.Graph, cluster.PerUser, 0)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.Build(index.Extract(tagging.Graph), cl, scoring.CountF)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(ix, scoring.SumG)
	if err != nil {
		b.Fatal(err)
	}
	return p, tagging.Tags[:3]
}

// BenchmarkSearch runs each strategy over the default tagging workload and
// reports postings scanned and exact rescores per query alongside wall
// time — the comparison docs/benchmark.md documents.
func BenchmarkSearch(b *testing.B) {
	for _, s := range []Strategy{Exhaustive, TA, NRA} {
		b.Run(s.String(), func(b *testing.B) {
			p, tags := benchSetup(b)
			users := p.Index().Data().Users
			var agg Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := p.TopKCtx(context.Background(), users[i%len(users)], tags, 10, s)
				if err != nil {
					b.Fatal(err)
				}
				agg.Add(st)
			}
			b.ReportMetric(float64(agg.PostingsScanned)/float64(b.N), "postings/op")
			b.ReportMetric(float64(agg.ExactScores)/float64(b.N), "rescores/op")
		})
	}
}

func BenchmarkParallelIndexBuild(b *testing.B) {
	tagging, err := workload.Tagging(workload.TaggingConfig{
		Users: 120, Items: 300, Tags: 12, Seed: 42, TagsPerUser: 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := index.Extract(tagging.Graph)
	cl, err := cluster.Build(tagging.Graph, cluster.PerUser, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"pool", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := index.BuildWithWorkers(data, cl, scoring.CountF, w.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
