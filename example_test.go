package socialscope_test

import (
	"context"
	"fmt"

	"socialscope"
)

// Example demonstrates the three-layer pipeline on a hand-built site:
// Ann's endorsement makes the baseball stadium socially relevant to John's
// "denver" query.
func Example() {
	b := socialscope.NewBuilder()
	john := b.Node([]string{socialscope.TypeUser}, "name", "John")
	ann := b.Node([]string{socialscope.TypeUser}, "name", "Ann")
	stadium := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "Coors Field", "city", "denver", "keywords", "baseball denver")
	park := b.Node([]string{socialscope.TypeItem, "destination"},
		"name", "City Park", "city", "denver", "keywords", "park denver")
	b.Link(john, ann, []string{socialscope.TypeConnect, socialscope.SubtypeFriend})
	b.Link(ann, stadium, []string{socialscope.TypeAct, socialscope.SubtypeVisit})

	eng, err := socialscope.New(b.Graph(), socialscope.Config{ItemType: "destination"})
	if err != nil {
		panic(err)
	}
	resp, err := eng.SearchCtx(context.Background(), john, "denver")
	if err != nil {
		panic(err)
	}
	for _, r := range resp.Results() {
		name := eng.Graph().Node(r.Item).Attrs.Get("name")
		fmt.Printf("%s social=%.1f\n", name, r.Social)
	}
	_ = park
	// Output:
	// Coors Field social=1.0
	// City Park social=0.0
}
