package persist

import (
	"cmp"
	"slices"
	"sort"
)

// InsertSorted returns a fresh ascending-sorted slice with v inserted,
// or the original slice when v is already present. It never modifies the
// input, so sorted slices can be shared across snapshots under the same
// copy-on-write discipline as Map versions.
func InsertSorted[T cmp.Ordered](s []T, v T) []T {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// RemoveSorted returns a fresh ascending-sorted slice without v, or the
// original slice when v is absent. It never modifies the input.
func RemoveSorted[T cmp.Ordered](s []T, v T) []T {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	out := make([]T, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// ApplySortedDelta returns a fresh ascending-sorted slice with a batch of
// edits applied in one merge pass: keys mapped to true are inserted
// (no-op when already present, like InsertSorted), keys mapped to false
// removed (no-op when absent, like RemoveSorted). This is the bulk
// counterpart for callers that buffer a batch of universe edits and flush
// once — one allocation per batch instead of one O(len(s)) copy per edit.
// The input is never modified; an empty delta returns it unchanged.
func ApplySortedDelta[T cmp.Ordered](s []T, delta map[T]bool) []T {
	if len(delta) == 0 {
		return s
	}
	ins := make([]T, 0, len(delta))
	for k, add := range delta {
		if add {
			ins = append(ins, k)
		}
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	out := make([]T, 0, len(s)+len(ins))
	j := 0
	for _, v := range s {
		for j < len(ins) && ins[j] < v {
			out = append(out, ins[j])
			j++
		}
		if j < len(ins) && ins[j] == v {
			j++ // insert of a present key: keep the resident one
		}
		if del, ok := delta[v]; ok && !del {
			continue // removal
		}
		out = append(out, v)
	}
	return append(out, ins[j:]...)
}

// IntersectionSize returns the number of elements common to a and b, two
// ascending slices without repeats. It walks the shorter one and, when the
// other is much longer, binary-searches a shrinking suffix of it instead of
// merging.
func IntersectionSize[T cmp.Ordered](a, b []T) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	if len(a)*8 < len(b) {
		for _, v := range a {
			i, found := slices.BinarySearch(b, v)
			if found {
				n++
				i++
			}
			b = b[i:]
		}
		return n
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns |a∩b| / |a∪b| for two ascending slices without repeats,
// or 0 when both are empty: the set similarity of Definitions 11 to 13
// and of §7's UserSim, computed exactly as scoring.Jaccard computes it.
func Jaccard[T cmp.Ordered](a, b []T) float64 {
	inter := IntersectionSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AppendIntersection appends to dst the elements common to a and b, two
// ascending slices without repeats, in ascending order.
func AppendIntersection[T cmp.Ordered](dst, a, b []T) []T {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// CloneExact returns a copy of v with capacity equal to its length, or
// nil when v is empty: the form a vector takes when it is stored, so an
// append by a reader copies instead of writing past it.
func CloneExact[T any](v []T) []T {
	if len(v) == 0 {
		return nil
	}
	c := make([]T, len(v))
	copy(c, v)
	return c
}
