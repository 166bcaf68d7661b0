// Command ssquery answers one query end-to-end against a social content
// graph: load (or generate) a site, run the Content Analyzer, discover,
// present, and explain — the full Figure 1 flow on the command line.
// With -addr it instead issues the same query against a running ssserve
// instance over HTTP, sharing the wire types of internal/serve.
//
// Usage:
//
//	ssquery -data travel.json -user 1 -q "denver attractions"
//	ssquery -gen -users 120 -items 60 -user 1 -q "family museum" -analyze=false
//	ssquery -addr localhost:8080 -user 1 -q "denver attractions"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "host:port of a running ssserve; queries remotely instead of locally")
	data := flag.String("data", "", "JSON graph file (from ssgen); empty with -gen generates one")
	gen := flag.Bool("gen", false, "generate a travel corpus instead of loading")
	users := flag.Int("users", 120, "generated users (with -gen)")
	items := flag.Int("items", 60, "generated destinations (with -gen)")
	seed := flag.Int64("seed", 42, "generator seed")
	userID := flag.Int64("user", 1, "querying user node id")
	q := flag.String("q", "", "query string (empty = pure social recommendations)")
	itemType := flag.String("itemtype", "destination", "node type of candidate results")
	analyze := flag.Bool("analyze", true, "run the content analyzer before querying")
	k := flag.Int("k", 10, "results wanted")
	retries := flag.Int("retries", 2, "with -addr: retries after a failed or shed request (0 = none)")
	minVersion := flag.Uint64("minversion", 0, "with -addr: lowest acceptable snapshot version (monotonic-read floor; answers below it come back marked STALE)")
	flag.Parse()

	if *addr != "" {
		if err := queryRemote(*addr, *userID, *q, *k, *retries, *minVersion); err != nil {
			fail(err)
		}
		return
	}

	g, err := loadGraph(*data, *gen, *users, *items, *seed)
	if err != nil {
		fail(err)
	}
	eng, err := socialscope.New(g, socialscope.Config{ItemType: *itemType})
	if err != nil {
		fail(err)
	}
	if *analyze {
		if err := eng.Analyze(); err != nil {
			fail(err)
		}
	}
	resp, err := eng.SearchCtx(context.Background(), socialscope.NodeID(*userID), *q)
	if err != nil {
		fail(err)
	}
	gg := eng.Graph()
	fmt.Printf("query %q for user %d over %s\n", *q, *userID, gg)
	fmt.Printf("social basis: %s (%d users)\n\n", resp.MSG.Basis.Kind, len(resp.MSG.Basis.Users))
	results := resp.Results()
	if len(results) > *k {
		results = results[:*k]
	}
	if len(results) == 0 {
		fmt.Println("no results")
		return
	}
	for i, r := range results {
		n := gg.Node(r.Item)
		fmt.Printf("%2d. %-28s score=%.3f sem=%.3f soc=%.3f — %s\n",
			i+1, label(n), r.Score, r.Semantic, r.Social, resp.Summaries[i])
	}
	fmt.Printf("\ngrouping (%s):\n", resp.Presentation.Chosen.Criterion)
	for _, grp := range resp.Presentation.Chosen.Groups {
		fmt.Printf("  [%s] %d item(s), quality %.3f\n", grp.Label, grp.Size(), grp.Quality)
	}
	if len(resp.Related.Topics)+len(resp.Related.Users) > 0 {
		fmt.Println("\nexplore further:")
		for _, rt := range resp.Related.Topics {
			fmt.Printf("  topic %-24s (%d results belong to it)\n", label(gg.Node(rt.Topic)), rt.Count)
		}
		for _, ru := range resp.Related.Users {
			fmt.Printf("  user  %-24s (acted on %d results)\n", label(gg.Node(ru.User)), ru.Count)
		}
	}
}

func loadGraph(path string, gen bool, users, items int, seed int64) (*graph.Graph, error) {
	if gen || path == "" {
		corpus, err := workload.Travel(workload.TravelConfig{
			Users: users, Destinations: items, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return corpus.Graph, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Decode(f)
}

func label(n *graph.Node) string {
	if n == nil {
		return "?"
	}
	if name := n.Attrs.Get("name"); name != "" {
		return name
	}
	return fmt.Sprintf("node-%d", n.ID)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ssquery: %v\n", err)
	os.Exit(1)
}
