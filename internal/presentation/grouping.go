// Package presentation implements SocialScope's Information Presentation
// layer (Section 7): dynamic grouping of query results (social grouping per
// Definition 14, topical grouping over derived topics, structural grouping
// over attributes), group meaningfulness and selection, hierarchical
// zoom-in, and item/group explanations with social provenance (Section 7.2).
package presentation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

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
	sorted := sortedIDs(items)
	groups := make([]Group, 0, len(sorted))
	leaders := make([][]graph.Endorser, 0, len(sorted)) // each group's leading item's endorsers
	for _, it := range sorted {
		taggers := g.Endorsers(it)
		placed := false
		for gi, lead := range leaders {
			if jaccardAtLeast(lead, taggers, theta) {
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

// jaccardAtLeast reports whether the Jaccard similarity of two endorser
// vectors' ids reaches theta, with the verdict of the float test
// float64(inter)/float64(union) >= theta (0 when both are empty) and two
// exact prunes from the set-similarity-join literature (Bayardo et al.,
// WWW '07; Xiao et al., PPJoin, WWW '08) that never reject a pair the
// float test accepts:
//   - size filter: J ≤ min/max, and rounding is monotone, so
//     float64(min)/float64(max) < theta rejects;
//   - early exit: J ≥ θ needs inter ≥ θ(|a|+|b|)/(1+θ), so the merge stops
//     once inter plus the shorter remainder falls more than 1 below that,
//     the 1 absorbing the float test's rounding.
func jaccardAtLeast(a, b []graph.Endorser, theta float64) bool {
	short, long := len(a), len(b)
	if short > long {
		short, long = long, short
	}
	if long == 0 {
		return 0 >= theta
	}
	if float64(short)/float64(long) < theta {
		return false
	}
	least := int(math.Ceil(theta*float64(len(a)+len(b))/(1+theta) - 1))
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
			continue
		}
		if inter+min(len(a)-i, len(b)-j) < least {
			return false
		}
	}
	return float64(inter)/float64(len(a)+len(b)-inter) >= theta
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
	groups := make([]Group, 0, len(byTopic)+1)
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
	slices.Sort(vals)
	groups := make([]Group, 0, len(vals))
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
		slices.SortFunc(items, func(a, b graph.NodeID) int {
			return cmp.Or(cmp.Compare(scores[b], scores[a]), cmp.Compare(a, b))
		})
		var sum float64
		for _, it := range items {
			sum += scores[it]
		}
		if len(items) > 0 {
			groups[i].Quality = sum / float64(len(items))
		}
	}
	slices.SortStableFunc(groups, func(a, b Group) int {
		return cmp.Or(cmp.Compare(b.Quality, a.Quality), strings.Compare(a.Label, b.Label))
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
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func keysOf(m map[graph.NodeID][]graph.NodeID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
