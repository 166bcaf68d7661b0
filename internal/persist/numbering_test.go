package persist

import (
	"math/rand"
	"slices"
	"testing"
)

// numberAll adds ids to n, which was just Reset, and requires the
// first-seen numbering a built-in map gives, from Add and from Keys.
func numberAll[K Integer](t *testing.T, n *Numbering[K], ids []K) {
	t.Helper()
	want := make(map[K]int)
	var order []K
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			w = len(order)
			want[id] = w
			order = append(order, id)
		}
		if got := n.Add(id); got != w {
			t.Fatalf("Add(%v) = %d, want %d", id, got, w)
		}
	}
	if !slices.Equal(n.Keys(), order) {
		t.Fatalf("Keys() = %v, want %v", n.Keys(), order)
	}
	for id, w := range want {
		if got := n.Add(id); got != w {
			t.Fatalf("Add(%v) again = %d, want %d", id, got, w)
		}
	}
	if len(n.Keys()) != len(order) {
		t.Fatalf("adding known ids numbered %d keys, want %d", len(n.Keys()), len(order))
	}
}

// TestNumbering holds Numbering to a map oracle: at the extremes of the id
// range, on ids that share a home slot, with more keys than Reset
// announced, and across Resets that grow and shrink the table.
func TestNumbering(t *testing.T) {
	var n Numbering[int64]
	extremes := []int64{0, 1<<62 - 1, 1 << 62, 1<<62 + 1, -1 << 63, 1<<63 - 1, -1, 0, 1 << 62}
	n.Reset(len(extremes))
	numberAll(t, &n, extremes)

	var u Numbering[uint64]
	huge := []uint64{1<<63 + 1, 0, 1<<63 + 1, 1 << 62, 1<<64 - 1, 1 << 63}
	u.Reset(len(huge))
	numberAll(t, &u, huge)

	// Ids whose home slot in an 8-slot table is slot 5: they probe past
	// one another and wrap around the table's end.
	n.Reset(4)
	var shared []int64
	for id := int64(0); len(shared) < 4; id++ {
		if n.slot(id) == 5 {
			shared = append(shared, id)
		}
	}
	n.Reset(4)
	numberAll(t, &n, append(shared, shared[2], shared[0]))

	// Reset reuse: tables sized below, at and above the keys added, shrinking
	// and growing between rounds, each round starting from nothing.
	rng := rand.New(rand.NewSource(3))
	for _, round := range []struct{ announced, ids, span int }{
		{0, 50, 20}, {1, 300, 1000}, {1000, 40, 10}, {2, 2, 2}, {64, 64, 1 << 30}, {0, 0, 1}, {5, 5000, 700},
	} {
		ids := make([]int64, round.ids)
		for i := range ids {
			ids[i] = int64(rng.Intn(round.span)) << rng.Intn(33)
		}
		n.Reset(round.announced)
		numberAll(t, &n, ids)
	}
}
