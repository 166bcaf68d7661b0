package discovery

import (
	"cmp"
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

	// Users: the items' endorser vectors, each ascending without repeats,
	// merged pairwise in a balanced tree into one ascending run of (user,
	// count) — O(T log k) for T endorsers over k items. rel.Users keeps the
	// best limit users, in order; the run is in ascending id, so a newcomer
	// displaces only a strictly lower count and sits after every equal one.
	sc := countScratch.Get().(*userCounts)
	defer countScratch.Put(sc)
	for _, u := range sc.merge(g, items) {
		if u.Count < minActs {
			continue
		}
		if _, skip := slices.BinarySearch(exclude, u.User); skip {
			continue
		}
		if len(rel.Users) < limit {
			rel.Users = append(rel.Users, RelatedUser{})
		} else if u.Count <= rel.Users[limit-1].Count {
			continue
		}
		i := len(rel.Users) - 1
		for ; i > 0 && rel.Users[i-1].Count < u.Count; i-- {
			rel.Users[i] = rel.Users[i-1]
		}
		rel.Users[i] = u
	}
	return rel
}

// userCounts is RelatedEntities' reusable merge space: two buffers of
// ascending (user, count) runs and the end offsets of the current runs.
type userCounts struct {
	a, b []RelatedUser
	ends []int
}

var countScratch = sync.Pool{New: func() any { return new(userCounts) }}

// merge returns every endorser of items with the number of items it
// endorses, ascending by user. The result aliases sc until the next call.
func (sc *userCounts) merge(g *graph.Graph, items []graph.NodeID) []RelatedUser {
	a, ends := sc.a[:0], sc.ends[:0]
	for _, item := range items {
		for _, e := range g.Endorsers(item) {
			a = append(a, RelatedUser{e.ID, 1})
		}
		ends = append(ends, len(a))
	}
	b := sc.b
	for len(ends) > 1 {
		b = b[:0]
		lo, n := 0, 0
		for i := 0; i < len(ends); i += 2 {
			mid, hi := ends[i], ends[i]
			if i+1 < len(ends) {
				hi = ends[i+1]
			}
			b = mergeRuns(b, a[lo:mid], a[mid:hi])
			lo, ends[n], n = hi, len(b), n+1
		}
		a, b, ends = b, a, ends[:n]
	}
	sc.a, sc.b, sc.ends = a, b, ends
	return a
}

// mergeRuns appends the merge of two ascending runs to dst, adding the
// counts of a user present in both.
func mergeRuns(dst, x, y []RelatedUser) []RelatedUser {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i].User < y[j].User:
			dst = append(dst, x[i])
			i++
		case x[i].User > y[j].User:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, RelatedUser{x[i].User, x[i].Count + y[j].Count})
			i, j = i+1, j+1
		}
	}
	dst = append(dst, x[i:]...)
	return append(dst, y[j:]...)
}
