package discovery

import (
	"cmp"
	"fmt"
	"slices"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// Recommendation is one socially-scored item with its provenance: the
// users whose activities produced the score (the "social provenance" the
// presentation layer exposes).
type Recommendation struct {
	Item     graph.NodeID
	Score    float64
	Basis    []graph.NodeID // endorsing users
	Strategy string
}

// sortRecs orders by descending score, ties by ascending item id.
func sortRecs(rs []Recommendation) {
	slices.SortFunc(rs, func(a, b Recommendation) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Item, b.Item))
	})
}

// CFVariant selects how collaborative filtering is evaluated — the paper's
// explicitly posed open question at the end of Section 5.4.
type CFVariant uint8

const (
	// CFStepwise evaluates Example 5's nine-step program (compose links,
	// then aggregate).
	CFStepwise CFVariant = iota
	// CFPattern evaluates the Figure 2 graph-pattern aggregation over
	// G4 ∪ G5.
	CFPattern
)

func (v CFVariant) String() string {
	if v == CFPattern {
		return "pattern"
	}
	return "stepwise"
}

// CFConfig parameterizes collaborative filtering.
type CFConfig struct {
	SimThreshold float64   // minimum Jaccard similarity for the match network (default 0.5, the paper's)
	Variant      CFVariant // evaluation strategy
	ItemType     string    // item node type recommended (default destination)
}

func (c *CFConfig) fill() {
	if c.SimThreshold <= 0 {
		c.SimThreshold = 0.5
	}
	if c.ItemType == "" {
		c.ItemType = "destination"
	}
}

// CollaborativeFiltering runs Example 5 for the given user and returns the
// scored recommendations. It evaluates the program as one plan driven by
// the graph's adjacency lists and builds no intermediate graph and no map,
// yet returns exactly what CollaborativeFilteringAlgebra returns — the
// same items, bit-identical scores, basis and order. Both variants compute
// the same links, so the plan serves both; Variant only names the
// Strategy. The plan maps onto the program's steps as follows:
//
//   - Steps 1-2 (G1, the searcher's vst): mine, the sorted distinct
//     targets of the user's act links.
//   - Steps 3-5 (G2, and G3's Jaccard composition on δ(tgt,tgt)): only
//     users who acted on an item in mine compose with the searcher, so the
//     candidates are each item's distinct act sources, and the counter
//     table counts how many items of mine each shares.
//   - Step 6 (G4): the candidates whose Jaccard exceeds the threshold. A
//     candidate's out-links are read only when its shared count alone
//     could carry it over the threshold.
//   - Steps 7-9 (G5, the composition and average, or Figure 2's pattern):
//     each item averages the sim of the matches that acted on it. Matches
//     are walked in ascending id and their out-links in link-id order,
//     which is the order the algebra's link ids impose on the sums.
//
// The visit type is read from the adjacency, not from the neighbourhood
// view of act links: a link may carry either type without the other.
// Scratch comes from a pool; the result and Basis are fresh.
func CollaborativeFiltering(g *graph.Graph, user graph.NodeID, cfg CFConfig) ([]Recommendation, error) {
	cfg.fill()
	if !g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if cfg.Variant != CFStepwise && cfg.Variant != CFPattern {
		return nil, fmt.Errorf("discovery: unknown CF variant %d", cfg.Variant)
	}
	ct := counterPool.Get().(*userCounter)
	defer counterPool.Put(ct)
	mine := actTargets(&ct.mine, g, user)
	if len(mine) == 0 {
		return nil, nil
	}
	ids := ct.ids[:0]
	for _, item := range mine {
		start := len(ids)
		for _, l := range g.In(item) {
			if l.Src != user && l.HasType(graph.SubtypeVisit) {
				ids = append(ids, l.Src)
			}
		}
		slices.Sort(ids[start:])
		ids = ids[:start+len(slices.Compact(ids[start:]))]
	}
	matches, bound := ct.matches[:0], 0
	for _, c := range ct.count(ids) {
		// |acted(v)| >= inter, so the Jaccard is at most inter/|mine|, and
		// float division is monotone in the divisor: a co-actor whose
		// bound does not exceed the threshold cannot match, and its
		// out-links need not be read.
		if float64(c.Count)/float64(len(mine)) <= cfg.SimThreshold || !g.Node(c.User).HasType(graph.TypeUser) {
			continue
		}
		// The Jaccard of core.JaccardComposer over the two vst sets.
		acted := actTargets(&ct.acted, g, c.User)
		if sim := float64(c.Count) / float64(len(mine)+len(acted)-c.Count); sim > cfg.SimThreshold {
			matches = append(matches, cfMatch{c.User, sim})
			bound += g.OutDegree(c.User)
		}
	}
	ct.matches = matches
	if len(matches) == 0 {
		return nil, nil
	}
	slices.SortFunc(matches, func(a, b cfMatch) int { return cmp.Compare(a.id, b.id) })
	basis := make([]graph.NodeID, len(matches))
	// The counter table gives each item its slot of sums, in walk order.
	ct.reset(bound)
	sums := ct.sums[:0]
	for i, m := range matches {
		basis[i] = m.id
		for _, l := range g.Out(m.id) {
			if l.HasType(graph.SubtypeVisit) && g.Node(l.Tgt).HasType(cfg.ItemType) {
				k := ct.add(l.Tgt)
				if k == len(sums) {
					sums = append(sums, 0)
				}
				sums[k] += m.sim
			}
		}
	}
	ct.sums = sums
	if len(sums) == 0 {
		return nil, nil
	}
	// Sims exceed the threshold, which fill keeps positive: no score is <= 0.
	strategy := "cf-" + cfg.Variant.String()
	recs := make([]Recommendation, len(sums))
	for k, item := range ct.users {
		recs[k] = Recommendation{Item: item.User, Score: sums[k] / float64(item.Count), Basis: basis, Strategy: strategy}
	}
	sortRecs(recs)
	return recs, nil
}

// cfMatch is a co-actor whose Jaccard exceeds the threshold.
type cfMatch struct {
	id  graph.NodeID
	sim float64
}

// actTargets returns the distinct targets of u's visit links,
// ascending, in *buf, which keeps the space for the next call.
func actTargets(buf *[]graph.NodeID, g *graph.Graph, u graph.NodeID) []graph.NodeID {
	dst := (*buf)[:0]
	for _, l := range g.Out(u) {
		if l.HasType(graph.SubtypeVisit) {
			dst = append(dst, l.Tgt)
		}
	}
	slices.Sort(dst)
	*buf = slices.Compact(dst)
	return *buf
}

// ContentBased recommends items similar to those the user has acted on
// (Section 7.2's ItemSim, realized as Jaccard over item token sets). The
// per-item score is the maximum similarity to any past item; provenance is
// empty (content-based explanations cite items, not users).
func ContentBased(g *graph.Graph, user graph.NodeID, itemType string, minSim float64) ([]Recommendation, error) {
	if !g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if itemType == "" {
		itemType = graph.TypeItem
	}
	past := make(map[graph.NodeID]struct{})
	for _, l := range g.Out(user) {
		if l.HasType(graph.TypeAct) {
			past[l.Tgt] = struct{}{}
		}
	}
	var recs []Recommendation
	for _, cand := range g.NodesOfType(itemType) {
		if _, seen := past[cand.ID]; seen {
			continue
		}
		// Content similarity over attribute text only: shared type
		// vocabulary would make every item pair spuriously similar.
		candToks := scoring.TokenSet(cand.Attrs.Text())
		best := 0.0
		for p := range past {
			pn := g.Node(p)
			if pn == nil {
				continue
			}
			if s := scoring.Jaccard(candToks, scoring.TokenSet(pn.Attrs.Text())); s > best {
				best = s
			}
		}
		if best >= minSim && best > 0 {
			recs = append(recs, Recommendation{Item: cand.ID, Score: best, Strategy: "content"})
		}
	}
	sortRecs(recs)
	return recs, nil
}

// ExpertBased recommends the items most acted on by topic experts — the
// Example 2 fallback when the user's own connections cannot ground the
// query. Experts are the top-n users by activity on keyword-matching items;
// each recommended item is scored by how many experts acted on it.
func ExpertBased(g *graph.Graph, keywords []string, nExperts int) ([]Recommendation, error) {
	if len(keywords) == 0 || nExperts <= 0 {
		return nil, nil
	}
	// No node carries MaxNodeID()+1, so the scan excludes nobody.
	cat := newCatalog(g, graph.TypeItem)
	hits := cat.hits(keywords)
	experts := cat.experts(g, keywords, hits, nExperts, g.MaxNodeID()+1)
	if len(experts) == 0 {
		return nil, nil
	}
	counts := make(map[graph.NodeID]int)
	endorsers := make(map[graph.NodeID][]graph.NodeID)
	for _, e := range experts {
		for _, l := range g.Out(e) {
			if !l.HasType(graph.TypeAct) || cat.coverage(g, keywords, hits, l.Tgt) < 1 {
				continue
			}
			counts[l.Tgt]++
			endorsers[l.Tgt] = append(endorsers[l.Tgt], e)
		}
	}
	var recs []Recommendation
	for item, c := range counts {
		recs = append(recs, Recommendation{
			Item: item, Score: float64(c), Basis: endorsers[item], Strategy: "expert",
		})
	}
	sortRecs(recs)
	return recs, nil
}
