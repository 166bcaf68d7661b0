// Benchmarks regenerating every table and figure of the paper's
// evaluation surface (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for measured results):
//
//	E1 Table 1   — BenchmarkTable1QueryClassification
//	E2 Table 2   — BenchmarkTable2ModelComparison
//	E3 Figure 1  — BenchmarkPipeline (analyze → discover → present)
//	E4 Example 4 — BenchmarkExample4Search
//	E5 Figure 2  — BenchmarkFigure2PatternVsSteps (the §5.4 ablation)
//	E6 §6.2      — BenchmarkSection62IndexBuild / ...TopK (strategy sweep)
//	E7 §7        — BenchmarkGrouping, BenchmarkExplanations
//	E8 Lemma 1   — BenchmarkLemma1Rewrite
//	E9 analyzer  — BenchmarkLDA, BenchmarkApriori
package socialscope

import (
	"context"
	"fmt"
	"testing"

	"socialscope/internal/analyzer"
	"socialscope/internal/cluster"
	"socialscope/internal/core"
	"socialscope/internal/discovery"
	"socialscope/internal/federation"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/presentation"
	"socialscope/internal/queryclass"
	"socialscope/internal/scoring"
	"socialscope/internal/topk"
	"socialscope/internal/workload"
)

// --- E1: Table 1 -----------------------------------------------------------

func BenchmarkTable1QueryClassification(b *testing.B) {
	log, err := workload.QueryLog(20000, workload.PaperMixture(), 42)
	if err != nil {
		b.Fatal(err)
	}
	texts := make([]string, len(log))
	for i, q := range log {
		texts[i] = q.Text
	}
	clf := queryclass.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := clf.Summarize(texts)
		if table.Total != len(texts) {
			b.Fatal("classification lost queries")
		}
	}
}

// --- E2: Table 2 -----------------------------------------------------------

func BenchmarkTable2ModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := federation.CompareModels()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != 8 {
			b.Fatal("table shape wrong")
		}
	}
}

// --- E3: Figure 1 pipeline ---------------------------------------------------

func BenchmarkPipeline(b *testing.B) {
	corpus, err := workload.Travel(workload.TravelConfig{Users: 150, Destinations: 60, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(corpus.Graph, Config{ItemType: "destination", Topics: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := eng.SearchCtx(context.Background(), corpus.Users[i%len(corpus.Users)], "denver attractions")
		if err != nil {
			b.Fatal(err)
		}
		_ = resp
	}
}

// --- E4: Example 4 -----------------------------------------------------------

func benchTravelGraph(b *testing.B) (*graph.Graph, graph.NodeID) {
	b.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{Users: 200, Destinations: 80, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	return corpus.Graph, corpus.Users[0]
}

func BenchmarkExample4Search(b *testing.B) {
	g, john := benchTravelGraph(b)
	uid := fmt.Sprintf("%d", john)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1 := core.NewCondition(core.Cond("id", uid))
		c2 := core.NewCondition(core.Cond("type", graph.SubtypeFriend))
		c3 := core.NewCondition(core.Cond("type", "destination")).WithKeywords("denver attractions")
		c4 := core.NewCondition(core.Cond("type", graph.SubtypeVisit))
		c5 := core.NewCondition(core.Cond("type", graph.TypeAct))
		g1 := core.LinkSelect(core.SemiJoin(g, core.NodeSelect(g, c1, nil), core.Delta(graph.Src, graph.Src)), c2, nil)
		g2 := core.LinkSelect(core.SemiJoin(g, core.NodeSelect(g, c3, nil), core.Delta(graph.Tgt, graph.Src)), c4, nil)
		g3 := core.SemiJoin(g1, g2, core.Delta(graph.Tgt, graph.Src))
		g4 := core.SemiJoin(g2, g1, core.Delta(graph.Src, graph.Tgt))
		g5, err := core.Union(g3, g4)
		if err != nil {
			b.Fatal(err)
		}
		g6 := core.LinkSelect(core.SemiJoin(g, g3, core.Delta(graph.Src, graph.Tgt)), c5, nil)
		g7, err := core.Union(g5, g6)
		if err != nil {
			b.Fatal(err)
		}
		_ = g7
	}
}

// --- E5: Figure 2 — the paper's posed pattern-vs-steps question --------------

func BenchmarkFigure2PatternVsSteps(b *testing.B) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150, Destinations: 60, Seed: 19, VisitsPerUser: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	type cfFunc func(*graph.Graph, graph.NodeID, discovery.CFConfig) ([]discovery.Recommendation, error)
	for _, row := range []struct {
		name    string
		cf      cfFunc
		variant discovery.CFVariant
	}{
		{"stepwise", discovery.CollaborativeFilteringAlgebra, discovery.CFStepwise},
		{"pattern", discovery.CollaborativeFilteringAlgebra, discovery.CFPattern},
		{"physical", discovery.CollaborativeFiltering, discovery.CFStepwise},
	} {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				user := corpus.Users[i%len(corpus.Users)]
				_, err := row.cf(corpus.Graph, user, discovery.CFConfig{
					Variant: row.variant, SimThreshold: 0.2,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: Section 6.2 index study ----------------------------------------------

func benchTagging(b *testing.B) (*index.Data, *graph.Graph) {
	b.Helper()
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 150, Items: 300, Tags: 20, Seed: 23, TagsPerUser: 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	return index.Extract(corpus.Graph), corpus.Graph
}

var indexStrategies = []cluster.Strategy{
	cluster.PerUser, cluster.NetworkBased, cluster.BehaviorBased, cluster.Global,
}

func BenchmarkSection62IndexBuild(b *testing.B) {
	data, g := benchTagging(b)
	for _, s := range indexStrategies {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := cluster.Build(g, s, 0.3)
				if err != nil {
					b.Fatal(err)
				}
				ix, err := index.Build(data, c, scoring.CountF)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ix.EntryCount()), "entries")
			}
		})
	}
}

func BenchmarkSection62IndexTopK(b *testing.B) {
	data, g := benchTagging(b)
	queryTags := data.Tags
	if len(queryTags) > 3 {
		queryTags = queryTags[:3]
	}
	for _, s := range indexStrategies {
		c, err := cluster.Build(g, s, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		ix, err := index.Build(data, c, scoring.CountF)
		if err != nil {
			b.Fatal(err)
		}
		proc, err := topk.New(ix, scoring.SumG)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.String(), func(b *testing.B) {
			exact := 0
			for i := 0; i < b.N; i++ {
				u := data.Users[i%len(data.Users)]
				_, stats, err := proc.TopKCtx(context.Background(), u, queryTags, 10, topk.TA)
				if err != nil {
					b.Fatal(err)
				}
				exact += stats.ExactScores
			}
			b.ReportMetric(float64(exact)/float64(b.N), "rescores/op")
		})
	}
}

// --- E7: presentation ----------------------------------------------------------

func benchPresentationInputs(b *testing.B) (*graph.Graph, []graph.NodeID, map[graph.NodeID]float64, graph.NodeID) {
	b.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{Users: 150, Destinations: 80, Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	items := corpus.Destinations
	scores := make(map[graph.NodeID]float64, len(items))
	for i, it := range items {
		scores[it] = 1 - float64(i)/float64(len(items))
	}
	return corpus.Graph, items, scores, corpus.Users[0]
}

func BenchmarkGrouping(b *testing.B) {
	g, items, scores, _ := benchPresentationInputs(b)
	b.Run("social", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := presentation.SocialGrouping(g, items, scores, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structural", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			presentation.StructuralGrouping(g, items, scores, "city")
		}
	})
	b.Run("organize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := presentation.Organize(g, items, scores, presentation.OrganizeConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExplanations(b *testing.B) {
	g, items, _, user := benchPresentationInputs(b)
	b.Run("cf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			presentation.ExplainCF(g, user, items[i%len(items)])
		}
	})
	b.Run("content", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			presentation.ExplainContent(g, user, items[i%len(items)])
		}
	})
}

// --- E8: Lemma 1 -----------------------------------------------------------------

func BenchmarkLemma1Rewrite(b *testing.B) {
	g, _ := benchTravelGraph(b)
	sub := core.LinkSelect(g, core.NewCondition(core.Cond("type", graph.SubtypeVisit)), nil)
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.LinkMinus(g, sub)
		}
	})
	b.Run("lemma1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.LinkMinusViaLemma1(g, sub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E9: analyzer -----------------------------------------------------------------

func BenchmarkLDA(b *testing.B) {
	corpus, err := workload.Travel(workload.TravelConfig{Users: 60, Destinations: 50, Seed: 31})
	if err != nil {
		b.Fatal(err)
	}
	var docs [][]string
	for _, d := range corpus.Destinations {
		docs = append(docs, scoring.Tokenize(corpus.Graph.Node(d).Text()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.FitLDA(docs, analyzer.LDAConfig{
			Topics: 4, Iterations: 50, Seed: 5, Alpha: 0.1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApriori(b *testing.B) {
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 120, Items: 100, Tags: 12, Seed: 37, TagsPerUser: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	txs := analyzer.TagTransactions(corpus.Graph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := analyzer.Apriori(txs, analyzer.AprioriConfig{MinSupport: 5, MaxLen: 3})
		analyzer.Rules(sets, analyzer.AprioriConfig{MinSupport: 5, MinConfidence: 0.6})
	}
}
