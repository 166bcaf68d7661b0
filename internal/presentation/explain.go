package presentation

import (
	"cmp"
	"fmt"
	"slices"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// Explanation is Section 7.2's Expl(u, i): the items or users grounding a
// recommendation, each with its similarity weight, plus the aggregate
// phrasing ("60% of your friends endorsed this item").
type Explanation struct {
	Strategy string // "content" or "cf"
	Items    []WeightedID
	Users    []WeightedID
	Summary  string
}

// WeightedID is one explanation element with its weight
// (ItemSim × rating or UserSim × rating per the paper).
type WeightedID struct {
	ID     graph.NodeID
	Weight float64
}

// rating returns rating(u, i): the rating attribute of u's act link onto
// i, or 0 when u has not rated i (the paper's convention). Unrated acts
// count as endorsement strength 1.
func rating(g *graph.Graph, user, item graph.NodeID) float64 {
	for _, l := range g.Out(user) {
		if l.Tgt == item && l.HasType(graph.TypeAct) {
			return actRating(l)
		}
	}
	return 0
}

// actRating is the endorsement strength of one act link: its rating
// attribute, or 1 when it carries none.
func actRating(l *graph.Link) float64 {
	if v, ok := l.Attrs.Float("rating"); ok {
		return v
	}
	return 1
}

// itemSim is ItemSim(i, i'): Jaccard over the items' content token sets.
// Only attribute text participates — the shared type vocabulary ('item',
// 'destination') would otherwise make every pair spuriously similar.
func itemSim(g *graph.Graph, a, b graph.NodeID) float64 {
	na, nb := g.Node(a), g.Node(b)
	if na == nil || nb == nil {
		return 0
	}
	return scoring.Jaccard(scoring.TokenSet(na.Attrs.Text()), scoring.TokenSet(nb.Attrs.Text()))
}

func actedItems(g *graph.Graph, u graph.NodeID) scoring.Set[graph.NodeID] {
	s := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Out(u) {
		if l.HasType(graph.TypeAct) {
			s.Add(l.Tgt)
		}
	}
	return s
}

// ExplainContent builds the content-based explanation:
// Expl(u,i) = {i' ∈ Items(u) | ItemSim(i,i') > 0}, weighted by
// ItemSim(i,i') × rating(u,i').
func ExplainContent(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "content"}
	past := scoring.SortedInts(actedItems(g, user))
	var totalPast int
	for _, p := range past {
		if p == item {
			continue
		}
		totalPast++
		if sim := itemSim(g, item, p); sim > 0 {
			ex.Items = append(ex.Items, WeightedID{p, sim * rating(g, user, p)})
		}
	}
	sortWeighted(ex.Items)
	if totalPast > 0 {
		pct := 100 * len(ex.Items) / totalPast
		ex.Summary = fmt.Sprintf("This item is similar to %d%% of items you visited before", pct)
	} else {
		ex.Summary = "You have no past activity to relate this item to"
	}
	return ex
}

// CFContext is the searcher's side of the collaborative-filtering
// explanation, built once per query and shared by the explanation of every
// result: the searcher's friends and acted-item set, and UserSim(u, u') for
// each endorser met so far. UserSim is 1 for a directly connected user,
// else the Jaccard similarity of the two acted-item sets (0 for strangers
// with no overlap, matching "it is 0 if u and u' are not connected"). Not
// safe for concurrent use.
type CFContext struct {
	g       *graph.Graph
	user    graph.NodeID
	friends scoring.Set[graph.NodeID]
	acted   scoring.Set[graph.NodeID]
	sims    map[graph.NodeID]float64
	buf     []graph.NodeID // one endorser's acted items, reused
}

// NewCFContext prepares the explanations of results shown to user on g.
func NewCFContext(g *graph.Graph, user graph.NodeID) *CFContext {
	friends := scoring.NewSet[graph.NodeID]()
	for _, l := range g.Incident(user) {
		if !l.HasType(graph.TypeConnect) {
			continue
		}
		other := l.Tgt
		if other == user {
			other = l.Src
		}
		friends.Add(other)
	}
	return &CFContext{
		g: g, user: user, friends: friends,
		acted: actedItems(g, user),
		sims:  make(map[graph.NodeID]float64),
	}
}

func (c *CFContext) userSim(other graph.NodeID) float64 {
	if c.friends.Has(other) {
		return 1
	}
	sim, ok := c.sims[other]
	if !ok {
		sim = c.jaccard(other)
		c.sims[other] = sim
	}
	return sim
}

// jaccard is scoring.Jaccard(c.acted, actedItems(g, other)) without
// building the second set: other's acted items are sorted and deduplicated
// in a buffer reused across endorsers.
func (c *CFContext) jaccard(other graph.NodeID) float64 {
	c.buf = c.buf[:0]
	for _, l := range c.g.Out(other) {
		if l.HasType(graph.TypeAct) {
			c.buf = append(c.buf, l.Tgt)
		}
	}
	slices.Sort(c.buf)
	items := slices.Compact(c.buf)
	inter := 0
	for _, it := range items {
		if c.acted.Has(it) {
			inter++
		}
	}
	union := c.acted.Len() + len(items) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Explain builds the collaborative-filtering explanation of item:
// Expl(u,i) = {u' | UserSim(u,u') > 0 & i ∈ Items(u')}, weighted by
// UserSim(u,u') × rating(u',i). The aggregate phrasing counts the user's
// direct connections among the endorsers.
//
// The walk starts from the item: its endorsers are the users at the source
// of its incoming act links, so the cost follows the item's in-degree, not
// the number of users. In holds links in ascending id order, so a user's
// first act link met is its lowest-id one — the link rating(u', i) reads.
func (c *CFContext) Explain(item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "cf"}
	in := c.g.In(item)
	seen := make(scoring.Set[graph.NodeID], len(in))
	endorsingFriends := 0
	for _, l := range in {
		other := l.Src
		if other == c.user || !l.HasType(graph.TypeAct) || seen.Has(other) {
			continue
		}
		seen.Add(other)
		if !c.g.Node(other).HasType(graph.TypeUser) {
			continue
		}
		sim := c.userSim(other)
		if sim <= 0 {
			continue
		}
		ex.Users = append(ex.Users, WeightedID{other, sim * actRating(l)})
		if c.friends.Has(other) {
			endorsingFriends++
		}
	}
	sortWeighted(ex.Users)
	if c.friends.Len() > 0 {
		pct := 100 * endorsingFriends / c.friends.Len()
		ex.Summary = fmt.Sprintf("%d%% of your friends endorsed this item", pct)
	} else if len(ex.Users) > 0 {
		ex.Summary = fmt.Sprintf("%d similar users endorsed this item", len(ex.Users))
	} else {
		ex.Summary = "No social endorsement found for this item"
	}
	return ex
}

// ExplainCF builds the collaborative-filtering explanation of one item
// (see CFContext.Explain). Explaining several items for one user should
// share a CFContext instead.
func ExplainCF(g *graph.Graph, user, item graph.NodeID) Explanation {
	return NewCFContext(g, user).Explain(item)
}

// ExplainGroup aggregates item explanations into a group-level explanation
// (Section 7.2's Expl(u, g)): the union of the member explanations'
// users/items with summed weights, summarized concisely.
func ExplainGroup(g *graph.Graph, user graph.NodeID, group Group, strategy string) Explanation {
	agg := Explanation{Strategy: strategy}
	userW := map[graph.NodeID]float64{}
	itemW := map[graph.NodeID]float64{}
	var cf *CFContext
	if strategy != "content" {
		cf = NewCFContext(g, user)
	}
	for _, it := range group.Items {
		var ex Explanation
		if cf == nil {
			ex = ExplainContent(g, user, it)
		} else {
			ex = cf.Explain(it)
		}
		for _, w := range ex.Users {
			userW[w.ID] += w.Weight
		}
		for _, w := range ex.Items {
			itemW[w.ID] += w.Weight
		}
	}
	for id, w := range userW {
		agg.Users = append(agg.Users, WeightedID{id, w})
	}
	for id, w := range itemW {
		agg.Items = append(agg.Items, WeightedID{id, w})
	}
	sortWeighted(agg.Users)
	sortWeighted(agg.Items)
	switch {
	case len(agg.Users) > 0:
		agg.Summary = fmt.Sprintf("Group %q is endorsed by %d related users", group.Label, len(agg.Users))
	case len(agg.Items) > 0:
		agg.Summary = fmt.Sprintf("Group %q is similar to %d items you know", group.Label, len(agg.Items))
	default:
		agg.Summary = fmt.Sprintf("Group %q has no social provenance", group.Label)
	}
	return agg
}

// sortWeighted orders ws by descending weight, ties by ascending id — a
// total order, as ids are unique within one explanation.
func sortWeighted(ws []WeightedID) {
	slices.SortFunc(ws, func(a, b WeightedID) int {
		return cmp.Or(cmp.Compare(b.Weight, a.Weight), cmp.Compare(a.ID, b.ID))
	})
}
