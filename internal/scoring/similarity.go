package scoring

import "sort"

// Set is a set of comparable scalar values (node ids, items, tags) used by
// the similarity measures that drive clustering (Definitions 11-13), social
// grouping (Definition 14) and collaborative filtering (Example 5).
type Set[T comparable] map[T]struct{}

// NewSet builds a set from the given members.
func NewSet[T comparable](members ...T) Set[T] {
	s := make(Set[T], len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Add inserts a member.
func (s Set[T]) Add(m T) { s[m] = struct{}{} }

// Has reports membership.
func (s Set[T]) Has(m T) bool { _, ok := s[m]; return ok }

// Remove deletes a member (no-op when absent).
func (s Set[T]) Remove(m T) { delete(s, m) }

// Clone returns an independent copy of the set.
func (s Set[T]) Clone() Set[T] {
	c := make(Set[T], len(s))
	for m := range s {
		c[m] = struct{}{}
	}
	return c
}

// Len returns the cardinality.
func (s Set[T]) Len() int { return len(s) }

// IntersectionSize returns |s ∩ t| without materializing the intersection.
func IntersectionSize[T comparable](s, t Set[T]) int {
	if len(t) < len(s) {
		s, t = t, s
	}
	n := 0
	for m := range s {
		if _, ok := t[m]; ok {
			n++
		}
	}
	return n
}

// UnionSize returns |s ∪ t|.
func UnionSize[T comparable](s, t Set[T]) int {
	return len(s) + len(t) - IntersectionSize(s, t)
}

// Jaccard returns |s∩t| / |s∪t|; 0 when both sets are empty. This is the
// predicate kernel of Definitions 11 (network-based), 12 (behavior-based),
// 13 (hybrid) and 14 (social grouping) as well as the CF user similarity in
// Example 5 step 5.
func Jaccard[T comparable](s, t Set[T]) float64 {
	u := UnionSize(s, t)
	if u == 0 {
		return 0
	}
	return float64(IntersectionSize(s, t)) / float64(u)
}

// Members returns the set's members in an unspecified order.
func (s Set[T]) Members() []T {
	out := make([]T, 0, len(s))
	for m := range s {
		out = append(out, m)
	}
	return out
}

// SortedInts is a helper that returns sorted members for integer-like sets,
// giving deterministic output in reports and tests.
func SortedInts[T ~int | ~int64](s Set[T]) []T {
	out := s.Members()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
