package discovery

import (
	"slices"

	"socialscope/internal/graph"
)

// BasisKind records how a social basis was chosen, so explanations can say
// "your friends", "friends who made similar trips", or "topic experts".
type BasisKind uint8

const (
	// BasisFriends: the user's direct connections were usable as-is.
	BasisFriends BasisKind = iota
	// BasisQueryFriends: the subset of connections with activity relevant
	// to the query (Example 2: Selma's friends with family trips, not her
	// musician friends).
	BasisQueryFriends
	// BasisExperts: no suitable connections; fall back to topic experts.
	BasisExperts
)

func (k BasisKind) String() string {
	switch k {
	case BasisFriends:
		return "friends"
	case BasisQueryFriends:
		return "query-relevant friends"
	case BasisExperts:
		return "experts"
	}
	return "unknown"
}

// SocialBasis is the set of users grounding the social-relevance leg of a
// discovery, with the rationale for the choice.
type SocialBasis struct {
	Kind  BasisKind
	Users []graph.NodeID
}

// SelectSocialBasis implements the Example 2 analysis: start from the
// user's connections; if the query carries keywords, keep only connections
// whose own activities touch keyword-relevant items; if fewer than minSize
// remain, fall back to topic experts drawn from the whole site. The
// "right subset of the connections" problem the paper calls non-trivial is
// resolved by this activity-evidence filter.
//
// It tokenizes the graph's items once per call; Discover runs the same
// selection over its discoverer's catalog instead.
func SelectSocialBasis(g *graph.Graph, user graph.NodeID, q Query, minSize int) SocialBasis {
	var cat *catalog
	if len(q.Keywords) > 0 {
		cat = newCatalog(g, graph.TypeItem)
	}
	return selectBasis(g, cat, user, q, minSize)
}

// selectBasis is SelectSocialBasis reading item text from cat, which may
// be nil when the query has no keywords.
func selectBasis(g *graph.Graph, cat *catalog, user graph.NodeID, q Query, minSize int) SocialBasis {
	if minSize <= 0 {
		minSize = 1
	}
	friends := g.Connections(user)
	if i, ok := slices.BinarySearch(friends, user); ok {
		friends = slices.Delete(friends, i, i+1)
	}
	if len(friends) == 0 {
		friends = nil // a connect self-loop alone leaves no friends
	}
	if len(q.Keywords) == 0 {
		return SocialBasis{Kind: BasisFriends, Users: friends}
	}

	// Keep friends with query-relevant activity. A single shared token is
	// not evidence (Selma's musician friends visit Barcelona jazz clubs —
	// the location matches but the intent does not): an acted-on item must
	// match at least half the query terms to count.
	const basisRelevance = 0.5
	hits := cat.hits(q.Keywords)
	var relevant []graph.NodeID
	for _, f := range friends {
		for _, item := range g.Acts(f) {
			if cat.coverage(g, q.Keywords, hits, item) >= basisRelevance {
				relevant = append(relevant, f)
				break
			}
		}
	}
	if len(relevant) >= minSize {
		return SocialBasis{Kind: BasisQueryFriends, Users: relevant}
	}

	// Fall back to experts (Example 2: "identify a group of experts on the
	// topic to help answer Selma's query").
	if experts := cat.experts(g, q.Keywords, hits, minSize*2, user); len(experts) > 0 {
		return SocialBasis{Kind: BasisExperts, Users: experts}
	}
	return SocialBasis{Kind: BasisQueryFriends, Users: relevant}
}
