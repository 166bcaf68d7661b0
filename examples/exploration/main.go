// Exploration reproduces Example 3: Alexia's broad "american history"
// query returns places across the country and across endorser
// communities. Instead of a flat list, the presentation layer groups the
// results — structurally by city, socially by who endorses them — and
// explains each group, with zoom-in on demand.
package main

import (
	"context"
	"fmt"
	"log"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/presentation"
)

func main() {
	b := socialscope.NewBuilder()
	alexia := b.Node([]string{socialscope.TypeUser}, "name", "Alexia")
	var classmates, soccer []socialscope.NodeID
	for i := 0; i < 3; i++ {
		classmates = append(classmates, b.Node([]string{socialscope.TypeUser},
			"name", fmt.Sprintf("classmate-%d", i)))
		soccer = append(soccer, b.Node([]string{socialscope.TypeUser},
			"name", fmt.Sprintf("soccer-%d", i)))
	}
	jane := b.Node([]string{socialscope.TypeUser}, "name", "Jane")

	type site struct {
		name, city string
	}
	sites := []site{
		{"Freedom Trail", "boston"},
		{"Old North Church", "boston"},
		{"Independence Hall", "philadelphia"},
		{"Liberty Bell", "philadelphia"},
		{"Alamo", "san antonio"},
		{"Gettysburg", "gettysburg"},
	}
	var items []socialscope.NodeID
	for _, s := range sites {
		items = append(items, b.Node([]string{socialscope.TypeItem, "destination"},
			"name", s.name, "city", s.city, "keywords", "american history historic"))
	}
	for _, c := range classmates {
		b.Link(alexia, c, []string{socialscope.TypeConnect, "classmate"})
		b.Link(c, items[0], []string{socialscope.TypeAct, socialscope.SubtypeVisit})
		b.Link(c, items[1], []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	}
	for _, s := range soccer {
		b.Link(alexia, s, []string{socialscope.TypeConnect, "teammate"})
		b.Link(s, items[2], []string{socialscope.TypeAct, socialscope.SubtypeVisit})
		b.Link(s, items[3], []string{socialscope.TypeAct, socialscope.SubtypeVisit})
	}
	// Jane left comments on many result destinations (the related-user
	// exploration of Example 3).
	for _, it := range items[:4] {
		b.Link(jane, it, []string{socialscope.TypeAct, socialscope.SubtypeReview})
	}
	g := b.Graph()

	eng, err := socialscope.New(g, socialscope.Config{
		ItemType: "destination", Topics: 2, MaxGroups: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.SearchCtx(context.Background(), alexia, "american history")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query: \"american history\" — %d results\n\n", len(resp.Results()))

	fmt.Printf("chosen grouping: %s\n", resp.Presentation.Chosen.Criterion)
	for _, grp := range resp.Presentation.Chosen.Groups {
		fmt.Printf("  [%s] %d item(s)\n", grp.Label, grp.Size())
		for _, it := range grp.Items {
			fmt.Printf("      %s\n", g.Node(it).Attrs.Get("name"))
		}
	}
	fmt.Println("\nalternative groupings a UI could toggle to:")
	for _, alt := range resp.Presentation.Alternatives {
		fmt.Printf("  %s (%d groups)\n", alt.Criterion, len(alt.Groups))
	}

	// Social grouping with explanations: who endorses each group.
	items2 := make([]graph.NodeID, 0, len(resp.Results()))
	scores := map[graph.NodeID]float64{}
	for _, r := range resp.Results() {
		items2 = append(items2, r.Item)
		scores[r.Item] = r.Score
	}
	socialGroups, err := presentation.SocialGrouping(g, items2, scores, 0.4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsocial grouping (by endorser overlap) with group explanations:")
	for _, grp := range socialGroups.Groups {
		ex := presentation.ExplainGroup(g, alexia, grp, "cf")
		fmt.Printf("  [%s] %d item(s) — %s\n", grp.Label, grp.Size(), ex.Summary)
	}

	// Zoom-in (the hierarchical presentation of Section 7.1).
	if len(resp.Presentation.Chosen.Groups) > 0 {
		first := resp.Presentation.Chosen.Groups[0]
		sub, err := presentation.Zoom(g, first, scores, presentation.OrganizeConfig{}, "social")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nzoom into [%s]: %d subgroup(s)\n", first.Label, len(sub.Groups))
	}
}
