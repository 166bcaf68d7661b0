package persist_test

import (
	"fmt"

	"socialscope/internal/persist"
)

// Build a map cold from a known key set: one counting pass, then the trie
// laid out in exact-size slabs. The result is the very trie a chain of
// Sets would give, with the usual persistent guarantees.
func ExampleMap_Build() {
	tags := []string{"denver", "museum", "hiking"}
	m := persist.NewStringMap[int]().Build(tags, []int{0, 1, 2})

	fmt.Println("built:", m.Len(), "entries; hiking:", m.At("hiking"))
	// Output:
	// built: 3 entries; hiking: 2
}

// Write a batch over a published map in one window: SetWith and
// DeleteWith under one Edit mutate in place the trie nodes the window
// itself created, so the batch allocates O(n) nodes instead of the
// O(n log n) a chain of persistent Sets would; the Map the window started
// from — like every Map that existed before it — is never touched.
func ExampleMap_SetWith() {
	base := persist.NewStringMap[int]().Set("seed", 1)

	m, e := base, persist.NewEdit()
	for i, tag := range []string{"denver", "museum", "hiking"} {
		m = m.SetWith(e, tag, i)
	}
	m = m.DeleteWith(e, "seed")

	fmt.Println("built:", m.Len(), "entries; has hiking:", m.Has("hiking"))
	fmt.Println("base untouched:", base.Len(), "entry; has hiking:", base.Has("hiking"))
	// Output:
	// built: 3 entries; has hiking: true
	// base untouched: 1 entry; has hiking: false
}

// Closing a window is what makes its result shareable: once the owner
// writes under a fresh Edit, no write can reach the nodes the old window
// stamped — they are copied first.
func ExampleNewEdit() {
	sealed := persist.NewIntMap[int, string]().SetWith(persist.NewEdit(), 1, "a")

	next := persist.NewEdit()
	m := sealed.SetWith(next, 1, "b").SetWith(next, 2, "c")

	fmt.Println("sealed still holds:", sealed.At(1), sealed.Len())
	fmt.Println("next window holds:", m.At(1), m.Len())
	// Output:
	// sealed still holds: a 1
	// next window holds: b 2
}
