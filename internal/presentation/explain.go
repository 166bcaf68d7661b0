package presentation

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
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

// rating returns rating(u, i): the rating of u's lowest-id act link onto
// i, or 0 when u has not acted on i (the paper's convention).
func rating(g *graph.Graph, user, item graph.NodeID) float64 {
	es := g.Endorsers(item)
	if i, ok := slices.BinarySearchFunc(es, user, byEndorserID); ok {
		return es[i].Rating
	}
	return 0
}

func byEndorserID(e graph.Endorser, id graph.NodeID) int { return cmp.Compare(e.ID, id) }

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

// ExplainContent builds the content-based explanation:
// Expl(u,i) = {i' ∈ Items(u) | ItemSim(i,i') > 0}, weighted by
// ItemSim(i,i') × rating(u,i').
func ExplainContent(g *graph.Graph, user, item graph.NodeID) Explanation {
	ex := Explanation{Strategy: "content"}
	var totalPast int
	for _, p := range g.Acts(user) {
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
// result: the searcher's friends and acted items, both as ascending
// vectors. UserSim(u, u') is 1 for a directly connected user, else the
// Jaccard similarity of the two acted-item vectors (0 for strangers with
// no overlap, matching "it is 0 if u and u' are not connected"). Read-only
// once built, so one context may explain items concurrently.
type CFContext struct {
	g       *graph.Graph
	user    graph.NodeID
	friends []graph.NodeID
	acted   []graph.NodeID
}

// NewCFContext prepares the explanations of results shown to user on g.
func NewCFContext(g *graph.Graph, user graph.NodeID) *CFContext {
	return &CFContext{g: g, user: user, friends: g.Connections(user), acted: g.Acts(user)}
}

func (c *CFContext) isFriend(other graph.NodeID) bool {
	_, ok := slices.BinarySearch(c.friends, other)
	return ok
}

// peer reports whether an endorser of an item can ground its explanation:
// a user other than the searcher.
func (c *CFContext) peer(id graph.NodeID) bool {
	return id != c.user && c.g.Node(id).HasType(graph.TypeUser)
}

// Explain builds the collaborative-filtering explanation of item: the
// weighted endorser list (Weighted) and its aggregate phrasing (Summary).
func (c *CFContext) Explain(item graph.NodeID) Explanation {
	return Explanation{Strategy: "cf", Users: c.Weighted(item), Summary: c.Summary(item)}
}

// Weighted is the list of the collaborative-filtering explanation of item:
// Expl(u,i) = {u' | UserSim(u,u') > 0 & i ∈ Items(u')}, weighted by
// UserSim(u,u') × rating(u',i), heaviest first.
//
// The walk starts from the item's endorser vector, so the cost follows the
// item's in-degree, not the number of users; each endorser carries the
// rating of its lowest-id act link onto the item — the link rating(u', i)
// reads.
func (c *CFContext) Weighted(item graph.NodeID) []WeightedID {
	var ws []WeightedID
	for _, e := range c.g.Endorsers(item) {
		if !c.peer(e.ID) {
			continue
		}
		sim := 1.0
		if !c.isFriend(e.ID) {
			if sim = persist.Jaccard(c.acted, c.g.Acts(e.ID)); sim <= 0 {
				continue
			}
		}
		ws = append(ws, WeightedID{e.ID, sim * e.Rating})
	}
	sortWeighted(ws)
	return ws
}

// Summary is the aggregate phrasing of the collaborative-filtering
// explanation of item — the part a response shows. A searcher with friends
// reads the share of them among the item's endorsers; one without reads
// the length of Weighted's list, the endorsing users whose acted items
// meet the searcher's (UserSim > 0, a non-empty intersection). It only
// counts: no similarity value, no list, no sort.
func (c *CFContext) Summary(item graph.NodeID) string {
	es := c.g.Endorsers(item)
	if len(c.friends) > 0 {
		n := 0
		for _, f := range c.friends {
			i, found := slices.BinarySearchFunc(es, f, byEndorserID)
			if found {
				if c.peer(f) {
					n++
				}
				i++
			}
			if es = es[i:]; len(es) == 0 {
				break
			}
		}
		return strconv.Itoa(100*n/len(c.friends)) + "% of your friends endorsed this item"
	}
	n := 0
	for _, e := range es {
		if c.peer(e.ID) && persist.IntersectionSize(c.acted, c.g.Acts(e.ID)) > 0 {
			n++
		}
	}
	if n > 0 {
		return strconv.Itoa(n) + " similar users endorsed this item"
	}
	return "No social endorsement found for this item"
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
