package discovery

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/persist"
	"socialscope/internal/topk"
)

// DiscoverTaggedCtx answers a keyword-only query through the Section 6.2
// activity-driven index instead of the BM25 + social-basis fusion path:
// the query keywords are interpreted as tags, the processor evaluates
// score(i, u) = g(f(network(u) ∩ taggers(i, k1)), ...) with the requested
// early-termination strategy, and the ranked items form the same MSG
// shape Discover produces — endorsers are the user's network
// members whose tagging produced the score, so presentation-layer
// explanations keep working. The returned Stats expose the postings
// scanned and random accesses the evaluation cost, plus the index
// snapshot version that was read.
//
// The processor wraps one immutable index snapshot, so the evaluation is
// consistent even while a live engine applies mutation batches: results,
// endorsers and scores all come from the snapshot's substrate, and a
// processor over a newer snapshot (index.ApplyDelta) simply sees the
// newer world.
//
// The processor's accumulation loops poll ctx (see topk.TopKCtx), so a
// serving layer's per-request deadline bounds the index scan. Endorser
// collection after a successful evaluation is O(k) and runs to completion.
func (d *Discoverer) DiscoverTaggedCtx(ctx context.Context, user graph.NodeID, q Query,
	proc *topk.Processor, strategy topk.Strategy) (*MSG, topk.Stats, error) {
	if proc == nil {
		return nil, topk.Stats{}, fmt.Errorf("discovery: nil top-k processor")
	}
	if !d.g.HasNode(user) {
		return nil, topk.Stats{}, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if q.K <= 0 {
		q.K = 10
	}
	if len(q.Keywords) == 0 {
		return nil, topk.Stats{}, fmt.Errorf("discovery: tagged discovery needs keywords")
	}
	// Query keywords arrive tokenized (lowercased) while tags are indexed
	// verbatim from the graph; resolve case-insensitively so "Museum" in
	// the corpus is reachable from a search box. Multi-word tags are not
	// addressable through a space-separated query — an inherent limit of
	// the keyword syntax, not of the index.
	data := proc.Index().Data()
	tags := make([]string, len(q.Keywords))
	for i, kw := range q.Keywords {
		tags[i] = kw
		if data.Taggers.Has(kw) {
			continue
		}
		// Lexicographically smallest match keeps resolution deterministic
		// when several stored tags fold to the same keyword.
		data.Taggers.Range(func(t string, _ index.ItemTaggers) bool {
			if strings.EqualFold(t, kw) && (tags[i] == kw || t < tags[i]) {
				tags[i] = t
			}
			return true
		})
	}
	ranked, stats, err := proc.TopKCtx(ctx, user, tags, q.K, strategy)
	if err != nil {
		return nil, stats, err
	}

	// Scores are raw counts under the paper's f = count, g = sum; normalize
	// the Social leg to [0,1] by the maximum so downstream presentation
	// sees the same scale the fusion path produces.
	maxScore := 0.0
	for _, r := range ranked {
		if r.Score > maxScore {
			maxScore = r.Score
		}
	}
	net := data.Network.At(user)
	results := make([]Result, 0, len(ranked))
	for _, r := range ranked {
		res := Result{Item: r.Item, Score: r.Score, Social: r.Score}
		if maxScore > 0 {
			res.Social = r.Score / maxScore
		}
		// Provenance: network members who tagged the item with a query tag,
		// ascending — each tag's taggers merged with the network, and the
		// per-tag runs merged when the query has several tags.
		var endorsers []graph.NodeID
		for _, tag := range tags {
			endorsers = persist.AppendIntersection(endorsers, data.Taggers.At(tag).At(r.Item), net)
		}
		if len(tags) > 1 {
			slices.Sort(endorsers)
			endorsers = slices.Compact(endorsers)
		}
		res.Endorsers = endorsers
		results = append(results, res)
	}
	return &MSG{User: user, Query: q, Results: results, Snapshot: d.g}, stats, nil
}
