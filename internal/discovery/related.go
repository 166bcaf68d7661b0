package discovery

import (
	"cmp"
	"slices"

	"socialscope/internal/graph"
)

// RelatedTopic is a derived topic connected to many result items, with the
// count of results belonging to it.
type RelatedTopic struct {
	Topic graph.NodeID
	Count int
}

// RelatedUser is a user who acted on several result items — Example 3's
// "Jane, who left comments on many result destinations".
type RelatedUser struct {
	User  graph.NodeID
	Count int
}

// Related is the exploration payload of Example 3: entities adjacent to the
// result set that a UI offers as onward navigation.
type Related struct {
	Topics []RelatedTopic
	Users  []RelatedUser
}

// RelatedEntities analyzes an MSG's result items against the full graph
// and surfaces related topics (via belong links) and related users (users
// with act links onto ≥ minActs distinct result items, excluding the
// querying user and the social basis — those are already visible as
// provenance). Both lists are ordered by descending count, ties by id, and
// capped at limit entries each.
func RelatedEntities(g *graph.Graph, msg *MSG, minActs, limit int) Related {
	if minActs <= 0 {
		minActs = 2
	}
	if limit <= 0 {
		limit = 5
	}
	inResults := make(map[graph.NodeID]struct{}, len(msg.Results))
	for _, r := range msg.Results {
		inResults[r.Item] = struct{}{}
	}
	exclude := map[graph.NodeID]struct{}{msg.User: {}}
	for _, b := range msg.Basis.Users {
		exclude[b] = struct{}{}
	}

	topicCounts := make(map[graph.NodeID]int)
	// userCounts[u] is the number of distinct result items u acted on. An
	// item's in-links are walked together, so lastItem[u] == item means u
	// was already counted for it.
	userCounts := make(map[graph.NodeID]int)
	lastItem := make(map[graph.NodeID]graph.NodeID)
	for item := range inResults {
		for _, l := range g.Out(item) {
			if l.HasType(graph.TypeBelong) {
				topicCounts[l.Tgt]++
			}
		}
		for _, l := range g.In(item) {
			if !l.HasType(graph.TypeAct) {
				continue
			}
			if _, skip := exclude[l.Src]; skip {
				continue
			}
			if last, seen := lastItem[l.Src]; seen && last == item {
				continue
			}
			lastItem[l.Src] = item
			userCounts[l.Src]++
		}
	}

	var rel Related
	for topic, n := range topicCounts {
		rel.Topics = append(rel.Topics, RelatedTopic{topic, n})
	}
	slices.SortFunc(rel.Topics, func(a, b RelatedTopic) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Topic, b.Topic))
	})
	if len(rel.Topics) > limit {
		rel.Topics = rel.Topics[:limit]
	}
	for user, n := range userCounts {
		if n >= minActs {
			rel.Users = append(rel.Users, RelatedUser{user, n})
		}
	}
	slices.SortFunc(rel.Users, func(a, b RelatedUser) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.User, b.User))
	})
	if len(rel.Users) > limit {
		rel.Users = rel.Users[:limit]
	}
	return rel
}
