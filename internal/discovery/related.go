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

	// Users: a k-way merge of the items' endorser vectors, each ascending
	// without repeats, so a user's count is the number of vectors whose
	// head it is when the merge reaches it. rel.Users keeps the best limit
	// users so far, in order; the merge meets users in ascending id, so a
	// newcomer displaces only a strictly lower count and sits after every
	// equal one.
	heads := make(endorserHeap, 0, len(items))
	for _, item := range items {
		if es := g.Endorsers(item); len(es) > 0 {
			heads = append(heads, es)
		}
	}
	heads.init()
	for len(heads) > 0 {
		user, n := heads[0][0].ID, 0
		for len(heads) > 0 && heads[0][0].ID == user {
			n++
			heads.advance()
		}
		if _, skip := slices.BinarySearch(exclude, user); skip || n < minActs {
			continue
		}
		if len(rel.Users) < limit {
			rel.Users = append(rel.Users, RelatedUser{})
		} else if n <= rel.Users[limit-1].Count {
			continue
		}
		i := len(rel.Users) - 1
		for ; i > 0 && rel.Users[i-1].Count < n; i-- {
			rel.Users[i] = rel.Users[i-1]
		}
		rel.Users[i] = RelatedUser{user, n}
	}
	return rel
}

// endorserHeap is a min-heap of non-empty endorser vectors ordered by
// their first entry's id.
type endorserHeap [][]graph.Endorser

func (h endorserHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// advance drops the smallest head, removing its vector once it drains.
func (h *endorserHeap) advance() {
	s := *h
	if s[0] = s[0][1:]; len(s[0]) == 0 {
		s[0] = s[len(s)-1]
		s = s[:len(s)-1]
		*h = s
	}
	s.down(0)
}

func (h endorserHeap) down(i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l][0].ID < h[least][0].ID {
			least = l
		}
		if r < len(h) && h[r][0].ID < h[least][0].ID {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
