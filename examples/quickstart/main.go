// Quickstart: build a tiny social content site by hand, run the full
// SocialScope pipeline (analyze → discover → present → explain) through
// the public facade, and print the organized results.
package main

import (
	"context"
	"fmt"
	"log"

	"socialscope"
)

func main() {
	// Content management: assemble the social content graph.
	b := socialscope.NewBuilder()
	john := b.Node([]string{socialscope.TypeUser}, "name", "John", "interests", "baseball")
	ann := b.Node([]string{socialscope.TypeUser}, "name", "Ann")
	bob := b.Node([]string{socialscope.TypeUser}, "name", "Bob")

	coors := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Coors Field", "city", "denver",
		"keywords", "baseball stadium denver attractions", "rating", "0.9")
	museum := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "B's Ballpark Museum", "city", "denver",
		"keywords", "baseball museum denver attractions", "rating", "0.6")
	zoo := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Denver Zoo", "city", "denver",
		"keywords", "zoo family denver attractions", "rating", "0.8")
	parc := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Parc de la Ciutadella", "city", "barcelona",
		"keywords", "family park babies barcelona", "rating", "0.7")

	b.Link(john, ann, []string{socialscope.TypeConnect, socialscope.SubtypeFriend})
	b.Link(john, bob, []string{socialscope.TypeConnect, socialscope.SubtypeFriend})
	b.Link(ann, coors, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	b.Link(ann, museum, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	b.Link(bob, coors, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	b.Link(bob, zoo, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	b.Link(ann, parc, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	g := b.Graph()

	// Wire the engine and run the off-line Content Analyzer.
	eng, err := socialscope.New(g, socialscope.Config{ItemType: "destination", Topics: 2})
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Analyze(); err != nil {
		log.Fatal(err)
	}

	// Information discovery + presentation: John's Example 1 query.
	resp, err := eng.SearchCtx(context.Background(), john, "denver attractions")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("query: \"denver attractions\" for John")
	fmt.Printf("basis: %s %v\n\n", resp.MSG.Basis.Kind, resp.MSG.Basis.Users)
	for _, r := range resp.Results() {
		n := eng.Graph().Node(r.Item)
		fmt.Printf("%-24s score=%.3f (semantic %.3f, social %.3f) endorsed by %d friend(s)\n",
			n.Attrs.Get("name"), r.Score, r.Semantic, r.Social, len(r.Endorsers))
	}
	fmt.Printf("\ngrouped by %s:\n", resp.Presentation.Chosen.Criterion)
	for _, grp := range resp.Presentation.Chosen.Groups {
		fmt.Printf("  [%s] %d item(s), quality %.3f\n", grp.Label, grp.Size(), grp.Quality)
	}
	if len(resp.Summaries) > 0 {
		fmt.Printf("\nwhy the top result: %s\n", resp.Summaries[0])
	}
}
