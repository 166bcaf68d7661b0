// Travel reproduces Example 1 at corpus scale: John, a baseball fan in
// Denver for a conference, searches "denver attractions" on a generated
// Y!Travel-style site; semantic relevance scopes the results and his
// friends' activities rank baseball venues first. It also runs Example 5's
// collaborative filtering for the same user in both evaluation variants.
package main

import (
	"context"
	"fmt"
	"log"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/workload"
)

func main() {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 120, Destinations: 60, Seed: 2026, VisitsPerUser: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{
		ItemType: "destination", Topics: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		log.Fatal(err)
	}
	john := corpus.Users[0]
	g := eng.Graph()
	fmt.Printf("site: %s\n", g)
	fmt.Printf("John is %s with %d friends\n\n",
		g.Node(john).Attrs.Get("name"), len(g.Neighbors(john)))

	resp, err := eng.SearchCtx(context.Background(), john, "denver attractions")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== search: \"denver attractions\" ===")
	for i, r := range resp.Results() {
		if i >= 5 {
			break
		}
		n := g.Node(r.Item)
		fmt.Printf("%d. %-20s city=%-12s score=%.3f endorsers=%d\n",
			i+1, n.Attrs.Get("name"), n.Attrs.Get("city"), r.Score, len(r.Endorsers))
	}

	fmt.Println("\n=== Example 5 collaborative filtering (both variants) ===")
	for _, variant := range []discovery.CFVariant{discovery.CFStepwise, discovery.CFPattern} {
		recs, err := discovery.CollaborativeFilteringAlgebra(g, john, discovery.CFConfig{
			Variant: variant, SimThreshold: 0.2,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s variant: %d recommendations", variant, len(recs))
		if len(recs) > 0 {
			fmt.Printf("; top: %s (score %.3f, via %d similar users)",
				g.Node(recs[0].Item).Attrs.Get("name"), recs[0].Score, len(recs[0].Basis))
		}
		fmt.Println()
	}
}
