package persist_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"socialscope/internal/persist"
	"socialscope/internal/scoring"
)

// TestJaccardMatchesScoring holds persist.Jaccard over ascending vectors to
// scoring.Jaccard over the same sets, bit for bit: the clustering and match
// derivation that moved from one to the other must produce the same floats.
func TestJaccardMatchesScoring(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vector := func(n, universe int) []int {
		v := rng.Perm(universe)[:n]
		slices.Sort(v)
		return v
	}
	check := func(a, b []int) {
		t.Helper()
		sa, sb := scoring.NewSet(a...), scoring.NewSet(b...)
		got, want := persist.Jaccard(a, b), scoring.Jaccard(sa, sb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Jaccard(%v, %v) = %v, scoring gives %v", a, b, got, want)
		}
	}
	check(nil, nil)
	check([]int{}, nil)
	check(nil, []int{3})
	for trial := 0; trial < 2000; trial++ {
		universe := 1 + rng.Intn(64)
		a, b := vector(rng.Intn(universe+1), universe), vector(rng.Intn(universe+1), universe)
		check(a, b)
	}
}
