// Package presentation implements SocialScope's Information Presentation
// layer (Section 7): dynamic grouping of query results (social grouping per
// Definition 14, topical grouping over derived topics, structural grouping
// over attributes), group meaningfulness and selection, hierarchical
// zoom-in, and item/group explanations with social provenance (Section 7.2).
package presentation

import (
	"fmt"
	"sort"

	"socialscope/internal/graph"
)

// Group is one presentation unit: a labeled subset of the result items.
type Group struct {
	Label string
	Items []graph.NodeID
	// Quality is the mean relevance of the group's items under the scores
	// the grouping was built with (one of the paper's meaningfulness
	// criteria).
	Quality float64
}

// Size returns the number of items in the group.
func (g Group) Size() int { return len(g.Items) }

// Grouping is a named partition of a result set.
type Grouping struct {
	Criterion string
	Groups    []Group
}

// SocialGrouping partitions items by endorser overlap (Definition 14): two
// items share a group when Jaccard(taggers(i1), taggers(i2)) ≥ θ, taggers(i)
// being the act sources of i (graph.Endorsers). Like the user clusterings
// it is materialized with deterministic leader clustering. Groups are
// labeled by their leading item's name.
func SocialGrouping(g *graph.Graph, items []graph.NodeID, scores map[graph.NodeID]float64, theta float64) (Grouping, error) {
	if theta < 0 || theta > 1 {
		return Grouping{}, fmt.Errorf("presentation: theta %g outside [0,1]", theta)
	}
	var groups []Group
	var leaders [][]graph.Endorser // each group's leading item's endorsers
	for _, it := range sortedIDs(items) {
		taggers := g.Endorsers(it)
		placed := false
		for gi, lead := range leaders {
			if endorserJaccard(lead, taggers) >= theta {
				groups[gi].Items = append(groups[gi].Items, it)
				placed = true
				break
			}
		}
		if !placed {
			leaders = append(leaders, taggers)
			groups = append(groups, Group{Label: labelFor(g, it), Items: []graph.NodeID{it}})
		}
	}
	finishGroups(groups, scores)
	return Grouping{Criterion: "social", Groups: groups}, nil
}

// endorserJaccard is the Jaccard similarity of two endorser vectors' ids,
// merged in one pass; 0 when both are empty.
func endorserJaccard(a, b []graph.Endorser) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].ID < b[j].ID:
			i++
		case a[i].ID > b[j].ID:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TopicalGrouping partitions items by the topic node their belong link
// points to (items without a topic go to an "untopiced" group). It
// requires the Content Analyzer to have derived topics.
func TopicalGrouping(g *graph.Graph, items []graph.NodeID, scores map[graph.NodeID]float64) Grouping {
	byTopic := map[graph.NodeID][]graph.NodeID{}
	var untopiced []graph.NodeID
	for _, it := range sortedIDs(items) {
		topic := graph.NodeID(0)
		for _, l := range g.Out(it) {
			if l.HasType(graph.TypeBelong) {
				topic = l.Tgt
				break
			}
		}
		if topic == 0 {
			untopiced = append(untopiced, it)
			continue
		}
		byTopic[topic] = append(byTopic[topic], it)
	}
	var groups []Group
	for _, topic := range sortedIDs(keysOf(byTopic)) {
		groups = append(groups, Group{Label: labelFor(g, topic), Items: byTopic[topic]})
	}
	if len(untopiced) > 0 {
		groups = append(groups, Group{Label: "other", Items: untopiced})
	}
	finishGroups(groups, scores)
	return Grouping{Criterion: "topical", Groups: groups}
}

// StructuralGrouping partitions items by the (first) value of an attribute
// — faceted grouping over the items' rich structure, e.g. by city or
// category. Items lacking the attribute group under "unknown".
func StructuralGrouping(g *graph.Graph, items []graph.NodeID, scores map[graph.NodeID]float64, attr string) Grouping {
	byVal := map[string][]graph.NodeID{}
	for _, it := range sortedIDs(items) {
		n := g.Node(it)
		val := "unknown"
		if n != nil {
			if v := n.Attrs.Get(attr); v != "" {
				val = v
			}
		}
		byVal[val] = append(byVal[val], it)
	}
	vals := make([]string, 0, len(byVal))
	for v := range byVal {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	var groups []Group
	for _, v := range vals {
		groups = append(groups, Group{Label: v, Items: byVal[v]})
	}
	finishGroups(groups, scores)
	return Grouping{Criterion: "structural:" + attr, Groups: groups}
}

// finishGroups computes qualities and orders each group's items by
// descending score (Result Selector: ranking within groups), then orders
// groups by descending quality (ranking across groups).
func finishGroups(groups []Group, scores map[graph.NodeID]float64) {
	for i := range groups {
		items := groups[i].Items
		sort.Slice(items, func(a, b int) bool {
			sa, sb := scores[items[a]], scores[items[b]]
			if sa != sb {
				return sa > sb
			}
			return items[a] < items[b]
		})
		var sum float64
		for _, it := range items {
			sum += scores[it]
		}
		if len(items) > 0 {
			groups[i].Quality = sum / float64(len(items))
		}
	}
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].Quality != groups[b].Quality {
			return groups[a].Quality > groups[b].Quality
		}
		return groups[a].Label < groups[b].Label
	})
}

func labelFor(g *graph.Graph, id graph.NodeID) string {
	if n := g.Node(id); n != nil {
		if name := n.Attrs.Get("name"); name != "" {
			return name
		}
	}
	return fmt.Sprintf("group-%d", id)
}

func sortedIDs(ids []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keysOf(m map[graph.NodeID][]graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
