package discovery

import (
	"cmp"
	"slices"
	"sync"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
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
// and surfaces related topics (via belong links, each counting the
// distinct result items that belong to it) and related users (act sources
// of ≥ minActs distinct result items, excluding the querying user and the
// social basis — those are already visible as provenance). Both lists are
// ordered by descending count, ties by id, and capped at limit entries
// each.
func RelatedEntities(g *graph.Graph, msg *MSG, minActs, limit int) Related {
	if minActs <= 0 {
		minActs = 2
	}
	if limit <= 0 {
		limit = 5
	}
	items := make([]graph.NodeID, len(msg.Results))
	for i, r := range msg.Results {
		items[i] = r.Item
	}
	slices.Sort(items)
	items = slices.Compact(items)
	exclude := append([]graph.NodeID{msg.User}, msg.Basis.Users...)
	slices.Sort(exclude)

	var rel Related
	// Topics: each item's belong targets once, then the runs of equal ids.
	var topics []graph.NodeID
	for _, item := range items {
		start := len(topics)
		for _, l := range g.Out(item) {
			if l.HasType(graph.TypeBelong) {
				topics = append(topics, l.Tgt)
			}
		}
		own := topics[start:]
		slices.Sort(own)
		topics = topics[:start+len(slices.Compact(own))]
	}
	slices.Sort(topics)
	for i := 0; i < len(topics); {
		j := i + 1
		for j < len(topics) && topics[j] == topics[i] {
			j++
		}
		rel.Topics = append(rel.Topics, RelatedTopic{topics[i], j - i})
		i = j
	}
	slices.SortFunc(rel.Topics, func(a, b RelatedTopic) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Topic, b.Topic))
	})
	if len(rel.Topics) > limit {
		rel.Topics = rel.Topics[:limit]
	}

	// Users: one pass over the items' endorser vectors, each ascending
	// without repeats, counting every endorser in an open-addressing table
	// — O(T) time and memory for T endorsers, whatever the id values.
	// rel.Users keeps the best limit users by (count desc, id asc).
	// Exclusion is checked last: few users get that far.
	ct := counterPool.Get().(*userCounter)
	defer counterPool.Put(ct)
	users := ct.endorsers(g, items)
	for _, u := range users {
		if u.Count < minActs || !admits(rel.Users, limit, u) {
			continue
		}
		if _, skip := slices.BinarySearch(exclude, u.User); skip {
			continue
		}
		if rel.Users == nil {
			rel.Users = make([]RelatedUser, 0, min(limit, len(users)))
		}
		rel.Users = insertBest(rel.Users, limit, u)
	}
	return rel
}

// admits reports whether u would enter best, a list of at most limit users
// in ranksBefore order.
func admits(best []RelatedUser, limit int, u RelatedUser) bool {
	return len(best) < limit || limit > 0 && ranksBefore(u, best[limit-1])
}

// insertBest inserts u, which admits accepts, into best at its rank,
// dropping the last user when best already holds limit.
func insertBest(best []RelatedUser, limit int, u RelatedUser) []RelatedUser {
	if len(best) < limit {
		best = append(best, RelatedUser{})
	}
	i := len(best) - 1
	for ; i > 0 && ranksBefore(u, best[i-1]); i-- {
		best[i] = best[i-1]
	}
	best[i] = u
	return best
}

// ranksBefore orders related users by descending count, ties by ascending id.
func ranksBefore(a, b RelatedUser) bool {
	return a.Count > b.Count || a.Count == b.Count && a.User < b.User
}

// userCounter is the reusable counting space of RelatedEntities, the
// expert scan and CollaborativeFiltering: the ids to count, and the
// distinct ids with their counts, numbered in first-seen order by a
// persist.Numbering, whose memory follows the id count and never the id
// values (ids are client-chosen through /apply). CollaborativeFiltering
// also keeps its act sets, matches and score sums here.
type userCounter struct {
	ids   []graph.NodeID
	num   persist.Numbering[graph.NodeID]
	users []RelatedUser

	mine, acted []graph.NodeID
	matches     []cfMatch
	sums        []float64
}

var counterPool = sync.Pool{New: func() any { return new(userCounter) }}

// endorsers counts every endorser of items with the number of items it
// endorses, in first-seen order. The result aliases ct until the next
// call.
func (ct *userCounter) endorsers(g *graph.Graph, items []graph.NodeID) []RelatedUser {
	ids := ct.ids[:0]
	for _, item := range items {
		for _, e := range g.Endorsers(item) {
			ids = append(ids, e.ID)
		}
	}
	return ct.count(ids)
}

// count returns each distinct id of ids with its number of occurrences,
// in first-seen order. ids is kept as ct's buffer; the result aliases ct
// until the next call.
func (ct *userCounter) count(ids []graph.NodeID) []RelatedUser {
	ct.reset(len(ids))
	for _, id := range ids {
		ct.add(id)
	}
	ct.ids = ids
	return ct.users
}

// reset empties the counts and sizes the numbering for n adds.
func (ct *userCounter) reset(n int) {
	ct.num.Reset(n)
	ct.users = ct.users[:0]
}

// add counts one occurrence of id and returns its number, its position in
// ct.users. It must follow a reset.
func (ct *userCounter) add(id graph.NodeID) int {
	k := ct.num.Add(id)
	if k == len(ct.users) {
		ct.users = append(ct.users, RelatedUser{User: id})
	}
	ct.users[k].Count++
	return k
}
