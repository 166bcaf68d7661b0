// Package scoring implements the relevance machinery SocialScope layers on
// its algebra: semantic relevance of nodes and links to keyword queries
// (tf-idf and BM25 over attribute text), the Jaccard set similarity used by
// clustering and collaborative filtering, and the monotone
// score-composition framework of Section 6.2
// (score_k(i,u) = f(network(u) ∩ taggers(i,k)), score(i,u) = g(...)).
//
// # The monotonicity contract
//
// The framework's two function classes carry an implicit contract every
// implementation must honor, because the index and top-k layers rely on it
// for correctness, not just for quality:
//
//   - UserSetFn f must be monotone in set containment: S ⊆ T implies
//     f(S) ≤ f(T). Since every admissible f depends on the user set only
//     through its size, the Go type takes the cardinality, and the
//     contract reads: a ≤ b implies f(a) ≤ f(b), with f(0) = 0.
//   - AggregateFn g must be monotone in every argument: if x_i ≤ y_i for
//     all i then g(x) ≤ g(y), with g(0, ..., 0) = 0.
//
// Two load-bearing consequences:
//
//   - Equation 1's cluster upper bound is admissible. The per-(cluster,
//     tag) posting lists of internal/index store max_{u∈C} score_k(i, u);
//     monotone f guarantees no member of the cluster can exceed the
//     stored value, so a list entry bounds the querying user's true
//     per-keyword score from above.
//   - Threshold-algorithm early termination is safe. internal/topk
//     assembles a threshold g(frontier_1, ..., frontier_n) from the
//     current heads of the sorted lists; monotone g guarantees no unseen
//     item can beat it, so once the k-th exact score strictly exceeds the
//     threshold the top k is provably final — stopping early never
//     changes the answer, it only skips postings that could not matter.
//
// A non-monotone f or g silently voids both guarantees: the index would
// store invalid bounds and TA/NRA could terminate with wrong results.
// CountF, LogCountF, SumG, MaxG and MinPositiveG all satisfy the
// contract; any new implementation must too.
package scoring
