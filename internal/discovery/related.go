package discovery

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"

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
	// rel.Users keeps the best limit users by (count desc, id asc); once it
	// is full, floor is its last count, and a newcomer displaces the last
	// only when it orders strictly before it. Exclusion is checked last:
	// few users get that far.
	ct := counterPool.Get().(*userCounter)
	defer counterPool.Put(ct)
	users := ct.count(g, items)
	floor := minActs
	for _, u := range users {
		if u.Count < floor {
			continue
		}
		full := len(rel.Users) == limit
		if full && !ranksBefore(u, rel.Users[limit-1]) {
			continue
		}
		if _, skip := slices.BinarySearch(exclude, u.User); skip {
			continue
		}
		if rel.Users == nil {
			rel.Users = make([]RelatedUser, 0, min(limit, len(users)))
		}
		if !full {
			rel.Users = append(rel.Users, RelatedUser{})
		}
		i := len(rel.Users) - 1
		for ; i > 0 && ranksBefore(u, rel.Users[i-1]); i-- {
			rel.Users[i] = rel.Users[i-1]
		}
		rel.Users[i] = u
		if len(rel.Users) == limit {
			floor = rel.Users[limit-1].Count
		}
	}
	return rel
}

// ranksBefore orders related users by descending count, ties by ascending id.
func ranksBefore(a, b RelatedUser) bool {
	return a.Count > b.Count || a.Count == b.Count && a.User < b.User
}

// userCounter is RelatedEntities' reusable counting space: the items'
// endorser vectors, the distinct endorsers with their counts in
// first-seen order, and a linear-probing table of positions in that list
// (0 marks an empty slot). The table is sized to a power of two at least
// twice the endorser total, so its memory follows the endorser count and
// never the id values (ids are client-chosen through /apply).
type userCounter struct {
	vecs  [][]graph.Endorser
	users []RelatedUser
	table []int32
}

var counterPool = sync.Pool{New: func() any { return new(userCounter) }}

// count returns every endorser of items with the number of items it
// endorses, in first-seen order. The result aliases ct until the next
// call.
func (ct *userCounter) count(g *graph.Graph, items []graph.NodeID) []RelatedUser {
	vecs, total := ct.vecs[:0], 0
	for _, item := range items {
		v := g.Endorsers(item)
		vecs = append(vecs, v)
		total += len(v)
	}
	size := 1
	for size < 2*total {
		size <<= 1
	}
	if cap(ct.table) < size {
		ct.table = make([]int32, size)
	}
	table, users := ct.table[:size], ct.users[:0]
	clear(table)
	shift := 64 - bits.TrailingZeros(uint(size))
	mask := size - 1
	for _, v := range vecs {
		for _, e := range v {
			// Fibonacci hashing: the multiply spreads consecutive ids, the
			// top bits index the table.
			i := int(uint64(e.ID) * 0x9E3779B97F4A7C15 >> shift)
			for {
				at := table[i]
				if at == 0 {
					users = append(users, RelatedUser{e.ID, 1})
					table[i] = int32(len(users))
					break
				}
				if users[at-1].User == e.ID {
					users[at-1].Count++
					break
				}
				i = (i + 1) & mask
			}
		}
	}
	clear(vecs) // drop the snapshot's vectors before pooling
	ct.vecs, ct.users = vecs, users
	return users
}
