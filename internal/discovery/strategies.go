package discovery

import (
	"fmt"
	"sort"

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
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Item < rs[j].Item
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
	ActType      string    // activity link type consulted (default visit)
	ItemType     string    // item node type recommended (default destination)
}

func (c *CFConfig) fill() {
	if c.SimThreshold <= 0 {
		c.SimThreshold = 0.5
	}
	if c.ActType == "" {
		c.ActType = graph.SubtypeVisit
	}
	if c.ItemType == "" {
		c.ItemType = "destination"
	}
}

// CollaborativeFiltering runs Example 5 for the given user and returns the
// scored recommendations. It evaluates the program as one plan driven by
// the graph's adjacency lists and builds no intermediate graph, yet returns
// exactly what CollaborativeFilteringAlgebra returns — the same items,
// bit-identical scores, basis and order. Both variants compute the same
// links, so the plan serves both; Variant only names the Strategy. The
// plan maps onto the program's steps as follows:
//
//   - Steps 1-2 (G1, the searcher's vst): mine, the targets of the user's
//     act links.
//   - Steps 3-5 (G2, and G3's Jaccard composition on δ(tgt,tgt)): only
//     users who acted on an item in mine compose with the searcher, so the
//     candidates, and how many items of mine each shares, are read from
//     the in-links of mine.
//   - Step 6 (G4): the candidates whose Jaccard exceeds the threshold. A
//     candidate's out-links are read only when its shared count alone
//     could carry it over the threshold.
//   - Steps 7-9 (G5, the composition and average, or Figure 2's pattern):
//     each item averages the sim of the matches that acted on it. Matches
//     are walked in ascending id and their out-links in link-id order,
//     which is the order the algebra's link ids impose on the sums.
func CollaborativeFiltering(g *graph.Graph, user graph.NodeID, cfg CFConfig) ([]Recommendation, error) {
	cfg.fill()
	if !g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if cfg.Variant != CFStepwise && cfg.Variant != CFPattern {
		return nil, fmt.Errorf("discovery: unknown CF variant %d", cfg.Variant)
	}
	mine := make(map[graph.NodeID]struct{})
	for _, l := range g.Out(user) {
		if l.HasType(cfg.ActType) {
			mine[l.Tgt] = struct{}{}
		}
	}
	if len(mine) == 0 {
		return nil, nil
	}
	// Co-actors and |mine ∩ acted(v)|, counted once per item of mine.
	type coActor struct {
		inter int
		item  graph.NodeID // the item of mine last counted
		user  bool
	}
	coActors := make(map[graph.NodeID]coActor)
	for item := range mine {
		for _, l := range g.In(item) {
			if l.Src == user || !l.HasType(cfg.ActType) {
				continue
			}
			c, seen := coActors[l.Src]
			switch {
			case !seen:
				c = coActor{inter: 1, item: item, user: g.Node(l.Src).HasType(graph.TypeUser)}
			case c.item != item:
				c.inter++
				c.item = item
			}
			coActors[l.Src] = c
		}
	}

	type match struct {
		id  graph.NodeID
		sim float64
	}
	var matches []match
	acted := make(map[graph.NodeID]struct{})
	for v, c := range coActors {
		// |acted(v)| >= inter, so the Jaccard is at most inter/|mine|, and
		// float division is monotone in the divisor: a co-actor whose
		// bound does not exceed the threshold cannot match, and its
		// out-links need not be read.
		if !c.user || float64(c.inter)/float64(len(mine)) <= cfg.SimThreshold {
			continue
		}
		clear(acted)
		for _, l := range g.Out(v) {
			if l.HasType(cfg.ActType) {
				acted[l.Tgt] = struct{}{}
			}
		}
		// The Jaccard of core.JaccardComposer over the two vst sets.
		sim := float64(c.inter) / float64(len(mine)+len(acted)-c.inter)
		if sim > cfg.SimThreshold {
			matches = append(matches, match{v, sim})
		}
	}
	if len(matches) == 0 {
		return nil, nil
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].id < matches[j].id })
	basis := make([]graph.NodeID, len(matches))
	type acc struct {
		sum float64
		n   int
	}
	scores := make(map[graph.NodeID]acc)
	for i, m := range matches {
		basis[i] = m.id
		for _, l := range g.Out(m.id) {
			if l.HasType(cfg.ActType) && g.Node(l.Tgt).HasType(cfg.ItemType) {
				a := scores[l.Tgt]
				a.sum += m.sim
				a.n++
				scores[l.Tgt] = a
			}
		}
	}
	strategy := "cf-" + cfg.Variant.String()
	var recs []Recommendation
	for item, a := range scores {
		if score := a.sum / float64(a.n); score > 0 {
			recs = append(recs, Recommendation{Item: item, Score: score, Basis: basis, Strategy: strategy})
		}
	}
	sortRecs(recs)
	return recs, nil
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
