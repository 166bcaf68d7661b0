// Socialbasis reproduces Example 2: Selma, a musician with two babies,
// plans a family trip to Barcelona. Her musician friends have no relevant
// activity, so the system must analyze her connections, reject them as a
// basis, and fall back to users with similar family trips — topic experts.
package main

import (
	"context"
	"fmt"
	"log"

	"socialscope"
	"socialscope/internal/discovery"
)

func main() {
	b := socialscope.NewBuilder()
	selma := b.Node([]string{socialscope.TypeUser}, "name", "Selma", "interests", "music")
	// Musician friends: active only on music venues.
	var musicians []socialscope.NodeID
	for i := 0; i < 3; i++ {
		musicians = append(musicians,
			b.Node([]string{socialscope.TypeUser}, "name", fmt.Sprintf("musician-%d", i)))
	}
	// Family travelers: no connection to Selma, but rich family-trip
	// history in Barcelona.
	var families []socialscope.NodeID
	for i := 0; i < 2; i++ {
		families = append(families,
			b.Node([]string{socialscope.TypeUser}, "name", fmt.Sprintf("family-%d", i)))
	}
	club := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Jazz Club", "city", "barcelona", "keywords", "music jazz nightlife")
	parc := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Parc de la Ciutadella", "city", "barcelona",
		"keywords", "family park babies barcelona", "rating", "0.9")
	aquarium := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Aquarium", "city", "barcelona",
		"keywords", "family babies barcelona indoor", "rating", "0.8")

	for _, m := range musicians {
		b.Link(selma, m, []string{socialscope.TypeConnect, socialscope.SubtypeFriend})
		b.Link(m, club, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	}
	for _, f := range families {
		b.Link(f, parc, []string{socialscope.TypeAct, socialscope.SubtypeVisit})
		b.Link(f, aquarium, []string{socialscope.TypeAct, socialscope.SubtypeReview}, "rating", "0.9")
	}
	g := b.Graph()

	q, err := discovery.ParseQuery("barcelona family babies")
	if err != nil {
		log.Fatal(err)
	}
	basis := discovery.SelectSocialBasis(g, selma, q, 1)
	fmt.Printf("query: %s\n", q)
	fmt.Printf("selected social basis: %s\n", basis.Kind)
	for _, u := range basis.Users {
		fmt.Printf("  - %s\n", g.Node(u).Attrs.Get("name"))
	}

	eng, err := socialscope.New(g, socialscope.Config{ItemType: "destination", Topics: 2})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), selma, "barcelona family babies")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrecommendations:")
	for _, r := range resp.Results() {
		fmt.Printf("  %-24s score=%.3f social=%.3f\n",
			g.Node(r.Item).Attrs.Get("name"), r.Score, r.Social)
	}
	fmt.Println("\nNote: the Jazz Club matches 'barcelona' but the family basis")
	fmt.Println("ranks the baby-friendly destinations first — the Example 2 outcome.")
}
