// Command ssbench regenerates every table and figure of the SocialScope
// paper on synthetic workloads and prints them in the paper's layout.
// docs/benchmark.md walks through the experiments and how to read them;
// system performance is measured by the bench/ ledger instead.
//
// Usage:
//
//	ssbench [-exp all|table1|table2|example4|figure2|index|topk|sync|presentation|analyzer|pipeline|fusion] [-scale N] [-seed S]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"socialscope"
	"socialscope/internal/analyzer"
	"socialscope/internal/cluster"
	"socialscope/internal/core"
	"socialscope/internal/discovery"
	"socialscope/internal/federation"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/queryclass"
	"socialscope/internal/scoring"
	"socialscope/internal/topk"
	"socialscope/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	runners := map[string]func(int, int64) error{
		"table1":       runTable1,
		"table2":       runTable2,
		"example4":     runExample4,
		"figure2":      runFigure2,
		"index":        runIndex,
		"topk":         runTopK,
		"sync":         runSync,
		"presentation": runPresentation,
		"analyzer":     runAnalyzer,
		"pipeline":     runPipeline,
		"fusion":       runFusion,
	}
	order := []string{"table1", "table2", "example4", "figure2", "index",
		"topk", "sync", "presentation", "analyzer", "pipeline", "fusion"}

	run := func(name string) {
		fmt.Printf("\n===== %s =====\n", name)
		if err := runners[name](*scale, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ssbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := runners[*exp]; !ok {
		fmt.Fprintf(os.Stderr, "ssbench: unknown experiment %q (have %s)\n",
			*exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	run(*exp)
}

// runTable1 regenerates Table 1: query-class statistics over a synthetic
// log drawn from the published mixture.
func runTable1(scale int, seed int64) error {
	n := 100000 * scale
	log, err := workload.QueryLog(n, workload.PaperMixture(), seed)
	if err != nil {
		return err
	}
	texts := make([]string, len(log))
	for i, q := range log {
		texts[i] = q.Text
	}
	start := time.Now()
	table := queryclass.Default().Summarize(texts)
	elapsed := time.Since(start)
	fmt.Printf("Table 1 — summary statistics of %d synthetic queries (paper: 10M Y!Travel queries)\n\n", n)
	fmt.Print(table.String())
	fmt.Printf("\npaper cells:  with loc 32.36 / 22.52 / 8.37 ; w/o loc 21.38 / 5.34 / -\n")
	fmt.Printf("classified %d queries in %v (%.0f queries/ms)\n",
		n, elapsed, float64(n)/float64(elapsed.Milliseconds()+1))
	return nil
}

// runTable2 regenerates Table 2 by probing the three management models.
func runTable2(int, int64) error {
	table, err := federation.CompareModels()
	if err != nil {
		return err
	}
	fmt.Println("Table 2 — comparison of content management models (probed, not asserted)")
	fmt.Println()
	fmt.Print(table.String())

	// Quantify the qualitative cells: remote calls to analyze the full
	// graph under each model.
	social := federation.NewSocialSite("fb")
	closed := federation.NewClosedCartel(social)
	socialO := federation.NewSocialSite("fb2")
	open := federation.NewOpenCartel(socialO)
	dec := federation.NewDecentralized()
	const users = 50
	for i := 0; i < users; i++ {
		p := federation.Profile{ID: fmt.Sprintf("u:%d", i), Name: fmt.Sprintf("u%d", i)}
		for _, m := range []federation.Model{dec, closed, open} {
			if err := m.RegisterUser(p); err != nil {
				return err
			}
		}
	}
	for i := 0; i < users-1; i++ {
		from, to := fmt.Sprintf("u:%d", i), fmt.Sprintf("u:%d", i+1)
		for _, m := range []federation.Model{dec, closed, open} {
			if err := m.Connect(from, to); err != nil {
				return err
			}
		}
	}
	fmt.Printf("\nremote calls to materialize the analyzable graph (%d users):\n", users)
	if err := open.Sync(nil); err != nil {
		return err
	}
	for _, m := range []federation.Model{dec, closed, open} {
		before := m.RemoteCalls().Calls
		if _, err := m.LocalGraph(); err != nil {
			return err
		}
		fmt.Printf("  %-14s %4d calls (analysis) — total %d incl. setup/sync\n",
			m.Name(), m.RemoteCalls().Calls-before, m.RemoteCalls().Calls)
	}
	return nil
}

// runExample4 executes the Example 4 search program on a travel corpus.
func runExample4(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 200 * scale, Destinations: 80 * scale, Seed: seed,
	})
	if err != nil {
		return err
	}
	g := corpus.Graph
	john := corpus.Users[0]
	uid := fmt.Sprintf("%d", john)
	start := time.Now()
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
		return err
	}
	g6 := core.LinkSelect(core.SemiJoin(g, g3, core.Delta(graph.Src, graph.Tgt)), c5, nil)
	g7, err := core.Union(g5, g6)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Println("Example 4 — \"John's friends who visited destinations near Denver and all their activities\"")
	fmt.Printf("  corpus: %s\n", g)
	fmt.Printf("  G1 (friend network):      %d links\n", g1.NumLinks())
	fmt.Printf("  G2 (near-Denver visits):  %d links\n", g2.NumLinks())
	fmt.Printf("  G3 (qualifying friends):  %d links\n", g3.NumLinks())
	fmt.Printf("  G4 (their visits):        %d links\n", g4.NumLinks())
	fmt.Printf("  G6 (their activities):    %d links\n", g6.NumLinks())
	fmt.Printf("  G7 (answer graph):        %d nodes, %d links in %v\n",
		g7.NumNodes(), g7.NumLinks(), elapsed)
	return nil
}

// runFigure2 reproduces the paper's open question at the end of Section
// 5.4 — Example 5 as a stepwise program or as Figure 2's graph-pattern
// aggregation — and times both algebra programs against the item-side
// physical plan the engine serves. The three must agree item for item on
// every sampled user; any disagreement fails the experiment.
func runFigure2(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150 * scale, Destinations: 60 * scale, Seed: seed, VisitsPerUser: 10,
	})
	if err != nil {
		return err
	}
	users := corpus.Users
	if len(users) > 30 {
		users = users[:30]
	}
	type cfFunc func(*graph.Graph, graph.NodeID, discovery.CFConfig) ([]discovery.Recommendation, error)
	rows := []struct {
		name    string
		cf      cfFunc
		variant discovery.CFVariant
	}{
		{"stepwise", discovery.CollaborativeFilteringAlgebra, discovery.CFStepwise},
		{"pattern", discovery.CollaborativeFilteringAlgebra, discovery.CFPattern},
		{"physical", discovery.CollaborativeFiltering, discovery.CFStepwise},
	}
	fmt.Println("Figure 2 / Example 5 — multi-step composition+aggregation vs. graph-pattern aggregation vs. the item-side plan")
	fmt.Printf("%-10s %-14s %-14s %-10s\n", "variant", "total time", "per user", "recs(u0)")
	var stepwise [][]discovery.Recommendation
	for _, row := range rows {
		got := make([][]discovery.Recommendation, len(users))
		start := time.Now()
		for i, u := range users {
			if got[i], err = row.cf(corpus.Graph, u, discovery.CFConfig{Variant: row.variant, SimThreshold: 0.2}); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%-10s %-14v %-14v %-10d\n", row.name, elapsed,
			elapsed/time.Duration(len(users)), len(got[0]))
		if stepwise == nil {
			stepwise = got
			continue
		}
		for i, u := range users {
			if err := sameRecommendations(stepwise[i], got[i]); err != nil {
				return fmt.Errorf("figure2: %s disagrees with stepwise for user %d: %w", row.name, u, err)
			}
		}
	}
	fmt.Printf("all three agree item-for-item (item, score, basis) on %d users\n", len(users))
	return nil
}

// sameRecommendations compares two rankings item for item: item, score
// and basis must be equal. The strategy name differs by construction.
func sameRecommendations(want, got []discovery.Recommendation) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d recommendations, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Item != g.Item || w.Score != g.Score || !slices.Equal(w.Basis, g.Basis) {
			return fmt.Errorf("rank %d: got %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// runIndex runs the Section 6.2 storage study: strategy × θ sweep of index
// size and query work, with result quality vs. exact.
func runIndex(scale int, seed int64) error {
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 150 * scale, Items: 300 * scale, Tags: 20, Seed: seed, TagsPerUser: 15,
	})
	if err != nil {
		return err
	}
	data := index.Extract(corpus.Graph)
	queryTags := data.Tags
	if len(queryTags) > 3 {
		queryTags = queryTags[:3]
	}
	fmt.Printf("Section 6.2 — index size and query work (users=%d items=%d tags=%d, query=%v, k=10)\n",
		len(data.Users), len(data.Items), len(data.Tags), queryTags)
	fmt.Printf("%-10s %-6s %-9s %-8s %-10s %-12s %-12s %-10s\n",
		"strategy", "theta", "clusters", "lists", "entries", "bytes(10B/e)", "rescores/q", "time/q")

	type cfg struct {
		s     cluster.Strategy
		theta float64
	}
	var cfgs []cfg
	cfgs = append(cfgs, cfg{cluster.PerUser, 0}, cfg{cluster.Global, 0})
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7} {
		cfgs = append(cfgs, cfg{cluster.NetworkBased, theta}, cfg{cluster.BehaviorBased, theta})
	}
	cfgs = append(cfgs, cfg{cluster.Hybrid, 0.3}) // Def. 13, the paper's future-work strategy
	sort.SliceStable(cfgs, func(i, j int) bool {
		if cfgs[i].s != cfgs[j].s {
			return cfgs[i].s < cfgs[j].s
		}
		return cfgs[i].theta < cfgs[j].theta
	})
	for _, c := range cfgs {
		cl, err := cluster.Build(corpus.Graph, c.s, c.theta)
		if err != nil {
			return err
		}
		ix, err := index.Build(data, cl, scoring.CountF)
		if err != nil {
			return err
		}
		proc, err := topk.New(ix, scoring.SumG)
		if err != nil {
			return err
		}
		r := ix.Report()
		users := data.Users
		if len(users) > 50 {
			users = users[:50]
		}
		start := time.Now()
		totalRescores := 0
		for _, u := range users {
			_, stats, err := proc.TopKCtx(context.Background(), u, queryTags, 10, topk.TA)
			if err != nil {
				return err
			}
			totalRescores += stats.ExactScores
		}
		perQ := time.Since(start) / time.Duration(len(users))
		fmt.Printf("%-10s %-6.2f %-9d %-8d %-10d %-12d %-12.1f %-10v\n",
			c.s, c.theta, r.Clusters, r.Lists, r.Entries, r.Bytes,
			float64(totalRescores)/float64(len(users)), perQ)
	}

	// The paper's 1TB back-of-envelope, reproduced analytically.
	fmt.Println("\npaper's sizing estimate (§6.2): 100k users, 1M items, 1k tags,")
	fmt.Println("20 tags/item by 5% of users, 10 B/entry → per-(tag,user) index ≈ 1 TB:")
	// One entry per (user, item) with a positive score ≈ 10^5 × 10^6 at
	// the paper's visibility assumptions; × 10 B/entry ≈ 1 TB.
	fmt.Printf("  10^5 users × 10^6 items × 10 B ≈ %.1f TB (paper: ~1 TB)\n",
		float64(100000)*float64(1000000)*10/1e12)
	return nil
}

// runTopK compares the early-terminating query processors against the
// exhaustive baseline: postings scanned (sorted accesses), exact rescores
// (random accesses), early-termination counts and wall time, per strategy
// and clustering. This is the experiment docs/benchmark.md walks through.
func runTopK(scale int, seed int64) error {
	corpus, err := workload.Tagging(workload.TaggingConfig{
		Users: 150 * scale, Items: 300 * scale, Tags: 20, Seed: seed, TagsPerUser: 15,
	})
	if err != nil {
		return err
	}
	data := index.Extract(corpus.Graph)
	queryTags := data.Tags
	if len(queryTags) > 3 {
		queryTags = queryTags[:3]
	}
	users := data.Users
	if len(users) > 50 {
		users = users[:50]
	}
	fmt.Printf("Top-k query processing — TA/NRA early termination vs. exhaustive\n")
	fmt.Printf("(users=%d items=%d tags=%d, query=%v, k=10, %d queries per row)\n\n",
		len(data.Users), len(data.Items), len(data.Tags), queryTags, len(users))
	fmt.Printf("%-10s %-12s %-12s %-12s %-12s %-10s %-10s\n",
		"cluster", "strategy", "postings/q", "rescores/q", "cands/q", "early", "time/q")

	for _, cc := range []struct {
		s     cluster.Strategy
		theta float64
	}{{cluster.PerUser, 0}, {cluster.NetworkBased, 0.3}, {cluster.Global, 0}} {
		cl, err := cluster.Build(corpus.Graph, cc.s, cc.theta)
		if err != nil {
			return err
		}
		buildStart := time.Now()
		ix, err := index.Build(data, cl, scoring.CountF)
		if err != nil {
			return err
		}
		buildTime := time.Since(buildStart)
		proc, err := topk.New(ix, scoring.SumG)
		if err != nil {
			return err
		}
		for _, strat := range []topk.Strategy{topk.Exhaustive, topk.TA, topk.NRA} {
			var agg topk.Stats
			early := 0
			start := time.Now()
			for _, u := range users {
				_, st, err := proc.TopKCtx(context.Background(), u, queryTags, 10, strat)
				if err != nil {
					return err
				}
				agg.Add(st)
				if st.EarlyTerminated {
					early++
				}
			}
			perQ := time.Since(start) / time.Duration(len(users))
			n := float64(len(users))
			fmt.Printf("%-10s %-12s %-12.1f %-12.1f %-12.1f %-10s %-10v\n",
				cc.s, strat,
				float64(agg.PostingsScanned)/n,
				float64(agg.ExactScores)/n,
				float64(agg.Candidates)/n,
				fmt.Sprintf("%d/%d", early, len(users)), perQ)
		}
		fmt.Printf("%-10s (index: %d entries, built in %v — sharded by tag across workers)\n\n",
			"", ix.EntryCount(), buildTime)
	}
	fmt.Println("postings/q: sorted accesses into the per-(cluster,tag) lists;")
	fmt.Println("rescores/q: exact score_k computations (random accesses);")
	fmt.Println("early: queries that stopped before draining their lists.")
	fmt.Println("exhaustive postings/q counts the (item,tag) cells the full scan computes.")
	return nil
}

// runSync compares uniform vs. activity-driven synchronization (Section
// 6.2 Further Discussion).
func runSync(scale int, seed int64) error {
	users := 40 * scale
	build := func() (*federation.SocialSite, *federation.OpenCartel) {
		s := federation.NewSocialSite("fb")
		for i := 0; i < users; i++ {
			s.CreateProfile(federation.Profile{ID: fmt.Sprintf("u:%d", i)})
		}
		return s, federation.NewOpenCartel(s)
	}
	// 10% of users are hot: they mutate every round.
	hot := users / 10
	mutate := func(s *federation.SocialSite) func(int) map[string]int {
		return func(round int) map[string]int {
			out := make(map[string]int)
			for i := 0; i < hot; i++ {
				id := fmt.Sprintf("u:%d", i)
				if err := s.UpdateProfile(id, []string{fmt.Sprintf("r%d", round)}); err != nil {
					panic(err)
				}
				out[id] = 5
			}
			return out
		}
	}
	const rounds = 20
	fmt.Printf("Activity-driven sync — %d users (%d hot), %d rounds\n", users, hot, rounds)
	fmt.Printf("%-16s %-8s %-10s %-10s\n", "policy", "calls", "stale-rate", "reads")

	s1, o1 := build()
	uni, err := federation.SimulateSync(s1, o1, federation.UniformPolicy{Period: 1}, nil, rounds, mutate(s1))
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-8d %-10.3f %-10d\n", uni.Policy, uni.Calls, uni.StaleRate(), uni.Reads)

	s2, o2 := build()
	am := federation.NewActivityManager()
	act, err := federation.SimulateSync(s2, o2, federation.ActivityDrivenPolicy{
		Manager: am, MediumCount: 10, HighCount: 40, MediumPeriod: 2, LowPeriod: 5,
	}, am, rounds, mutate(s2))
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-8d %-10.3f %-10d\n", act.Policy, act.Calls, act.StaleRate(), act.Reads)
	fmt.Printf("activity-driven saves %.0f%% of calls at comparable freshness\n",
		100*(1-float64(act.Calls)/float64(uni.Calls)))
	return nil
}

// runPresentation exercises Section 7 on an Alexia-style broad query.
func runPresentation(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150 * scale, Destinations: 80 * scale, Seed: seed,
	})
	if err != nil {
		return err
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{ItemType: "destination"})
	if err != nil {
		return err
	}
	if err := eng.Analyze(); err != nil {
		return err
	}
	resp, err := eng.SearchCtx(context.Background(), corpus.Users[0], "attractions")
	if err != nil {
		return err
	}
	fmt.Printf("Section 7 — presentation for a broad query (%d results)\n", len(resp.Results()))
	fmt.Printf("chosen grouping: %s (meaningfulness %.3f)\n",
		resp.Presentation.Chosen.Criterion, resp.Presentation.Score)
	for _, g := range resp.Presentation.Chosen.Groups {
		fmt.Printf("  group %-22q size=%-3d quality=%.3f\n", g.Label, g.Size(), g.Quality)
	}
	for _, alt := range resp.Presentation.Alternatives {
		fmt.Printf("alternative: %s (%d groups)\n", alt.Criterion, len(alt.Groups))
	}
	if len(resp.Summaries) > 0 {
		fmt.Printf("explanation for top item: %s\n", resp.Summaries[0])
	}
	return nil
}

// runAnalyzer runs the off-line analyses: LDA topics and association rules.
func runAnalyzer(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 100 * scale, Destinations: 60 * scale, Seed: seed,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	enriched, model, err := analyzer.DeriveTopics(corpus.Graph, "destination",
		analyzer.LDAConfig{Topics: 5, Iterations: 150, Seed: seed, Alpha: 0.1})
	if err != nil {
		return err
	}
	fmt.Printf("Content Analyzer — LDA over %d destinations in %v\n",
		len(corpus.Destinations), time.Since(start))
	for t := 0; t < 5; t++ {
		fmt.Printf("  topic %d: %s\n", t, strings.Join(model.TopTerms(t, 4), " "))
	}
	fmt.Printf("  derived %d topic nodes, %d belong links\n",
		enriched.CountNodes(graph.TypeTopic), enriched.CountLinks(graph.TypeBelong))

	txs := analyzer.TagTransactions(corpus.Graph)
	start = time.Now()
	sets := analyzer.Apriori(txs, analyzer.AprioriConfig{MinSupport: 5, MaxLen: 3})
	rules := analyzer.Rules(sets, analyzer.AprioriConfig{MinSupport: 5, MinConfidence: 0.25})
	fmt.Printf("Association rules — %d transactions, %d frequent sets, %d rules in %v\n",
		len(txs), len(sets), len(rules), time.Since(start))
	for i, r := range rules {
		if i >= 5 {
			break
		}
		fmt.Printf("  %s\n", r)
	}
	return nil
}

// runPipeline measures the end-to-end Figure 1 flow.
func runPipeline(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 200 * scale, Destinations: 100 * scale, Seed: seed,
	})
	if err != nil {
		return err
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{ItemType: "destination"})
	if err != nil {
		return err
	}
	start := time.Now()
	if err := eng.Analyze(); err != nil {
		return err
	}
	analyzeTime := time.Since(start)
	queries := []string{"denver attractions", "family trip", "museum historic", "", "city:paris"}
	start = time.Now()
	n := 0
	for i, u := range corpus.Users {
		if i >= 50 {
			break
		}
		resp, err := eng.SearchCtx(context.Background(), u, queries[i%len(queries)])
		if err != nil {
			return err
		}
		n += len(resp.Results())
	}
	queryTime := time.Since(start)
	fmt.Printf("Figure 1 pipeline — %s\n", corpus.Graph)
	fmt.Printf("  analyze (LDA + matches): %v\n", analyzeTime)
	fmt.Printf("  50 queries (discover + present + explain): %v (%v/query, %d results)\n",
		queryTime, queryTime/50, n)
	return nil
}

// runFusion measures the paper's central integration thesis: for general
// queries ("attractions" — one in two Y!Travel queries, Table 1), pure
// semantic relevance cannot discriminate, while the social leg recovers
// the user's planted interest. Ground truth: destinations matching the
// user's planted interest category. Reported: mean precision@5 under
// α = 1 (search only), α = 0.5 (SocialScope fusion), α = 0 (recommendation
// only).
func runFusion(scale int, seed int64) error {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 150 * scale, Destinations: 80 * scale, Seed: seed,
		VisitsPerUser: 8, InterestBias: 0.7,
	})
	if err != nil {
		return err
	}
	d := discovery.NewDiscoverer(corpus.Graph, "destination")
	relevant := func(u graph.NodeID) map[graph.NodeID]bool {
		cat := corpus.Interests[u]
		out := make(map[graph.NodeID]bool)
		for _, dest := range corpus.Destinations {
			if corpus.Graph.Node(dest).Attrs.Get("category") == cat {
				out[dest] = true
			}
		}
		return out
	}
	const k = 5
	sample := corpus.Users
	if len(sample) > 60 {
		sample = sample[:60]
	}
	fmt.Println("Fusion quality — general query \"attractions\", planted interests, precision@5")
	fmt.Printf("%-22s %-12s\n", "alpha (semantic wt)", "mean P@5")
	for _, alpha := range []float64{1.0, 0.75, 0.5, 0.25, 0.0} {
		var total float64
		n := 0
		for _, u := range sample {
			q, err := discovery.ParseQuery("attractions")
			if err != nil {
				return err
			}
			q.Alpha = alpha
			q.K = k
			msg, err := d.Discover(u, q)
			if err != nil {
				return err
			}
			if len(msg.Results) == 0 {
				continue
			}
			rel := relevant(u)
			hit := 0
			for _, r := range msg.Results {
				if rel[r.Item] {
					hit++
				}
			}
			total += float64(hit) / float64(len(msg.Results))
			n++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("%-22.2f %-12.3f\n", alpha, total/float64(n))
	}
	fmt.Println("(α=1 is keyword search alone; lower α folds in the social leg)")
	return nil
}
