package persist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestInsertRemoveSorted(t *testing.T) {
	s := []int{2, 4, 6}
	if got := InsertSorted(s, 4); !sameSlice(got, s) {
		t.Fatalf("inserting present key rebuilt the slice: %v", got)
	}
	if got := InsertSorted(s, 5); !reflect.DeepEqual(got, []int{2, 4, 5, 6}) {
		t.Fatalf("InsertSorted = %v", got)
	}
	if got := RemoveSorted(s, 5); !sameSlice(got, s) {
		t.Fatalf("removing absent key rebuilt the slice: %v", got)
	}
	if got := RemoveSorted(s, 4); !reflect.DeepEqual(got, []int{2, 6}) {
		t.Fatalf("RemoveSorted = %v", got)
	}
	if !reflect.DeepEqual(s, []int{2, 4, 6}) {
		t.Fatalf("input mutated: %v", s)
	}
}

// TestApplySortedDelta holds the batch merge to the per-edit reference:
// any delta map applied at once must equal the same edits applied one by
// one through InsertSorted/RemoveSorted (order-independent by
// construction — one entry per key).
func TestApplySortedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		base := make([]int, 0, 40)
		for _, k := range rng.Perm(100)[:rng.Intn(40)] {
			base = InsertSorted(base, k)
		}
		delta := make(map[int]bool)
		for i := 0; i < rng.Intn(20); i++ {
			delta[rng.Intn(120)] = rng.Intn(2) == 0
		}
		want := append([]int(nil), base...)
		for k, add := range delta {
			if add {
				want = InsertSorted(want, k)
			} else {
				want = RemoveSorted(want, k)
			}
		}
		got := ApplySortedDelta(base, delta)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: base %v delta %v\n got %v\nwant %v", trial, base, delta, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("trial %d: result unsorted: %v", trial, got)
		}
	}
	s := []int{1, 2, 3}
	if got := ApplySortedDelta(s, nil); !sameSlice(got, s) {
		t.Fatal("empty delta must return the input unchanged")
	}
}

func sameSlice[T comparable](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestIntersectionMatchesSets holds IntersectionSize and AppendIntersection
// to the set definition, over pairs of every size ratio — the lopsided
// pairs take IntersectionSize's binary-search branch.
func TestIntersectionMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vector := func(n, universe int) []int {
		var s []int
		for _, k := range rng.Perm(universe)[:n] {
			s = InsertSorted(s, k)
		}
		return s
	}
	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(200)
		a, b := vector(rng.Intn(min(universe, 12)+1), universe), vector(rng.Intn(universe+1), universe)
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		inB := make(map[int]bool)
		for _, v := range b {
			inB[v] = true
		}
		var want []int
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		if got := IntersectionSize(a, b); got != len(want) {
			t.Fatalf("IntersectionSize(%v, %v) = %d, want %d", a, b, got, len(want))
		}
		if got := AppendIntersection(nil, a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendIntersection(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestCloneExact(t *testing.T) {
	if CloneExact([]int{}) != nil || CloneExact[int](nil) != nil {
		t.Fatal("an empty vector must be stored as nil")
	}
	s := []int{1, 2, 3}
	c := CloneExact(s[:2])
	if !reflect.DeepEqual(c, []int{1, 2}) || cap(c) != 2 || &c[0] == &s[0] {
		t.Fatalf("CloneExact = %v (cap %d), want a private exact copy", c, cap(c))
	}
}
