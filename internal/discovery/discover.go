package discovery

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"socialscope/internal/core"
	"socialscope/internal/graph"
)

// ErrUnknownUser reports a query or recommendation for a user absent
// from the graph. A sentinel (matched with errors.Is) so serving layers
// can map it to a 404 without string inspection.
var ErrUnknownUser = errors.New("discovery: unknown user")

// Result is one ranked discovery: an item with its semantic and social
// relevance legs, the fused score, and the endorsing users (provenance).
type Result struct {
	Item      graph.NodeID
	Semantic  float64
	Social    float64
	Score     float64
	Endorsers []graph.NodeID
}

// MSG is the Meaningful Social Graph (Section 3): the social content
// subgraph semantically and socially relevant to a user and query, plus
// the ranked results it is assembled from.
type MSG struct {
	User    graph.NodeID
	Query   Query
	Basis   SocialBasis
	Results []Result
	// Snapshot is the immutable graph the MSG was discovered over; every
	// name and attribute of the results resolves against it.
	Snapshot *graph.Graph
}

// Discoverer evaluates queries against a social content graph. The item
// catalog (each item's text tokenized once, and the BM25 statistics over
// them) is computed lazily on the first fusion-path query and then shared
// by every subsequent query — and, through WithGraph, across engine
// snapshots whose item nodes are unchanged — so rebinding a discoverer to
// a new graph version costs O(1), not O(items). The lazy build is safe
// under concurrent queries.
type Discoverer struct {
	g        *graph.Graph
	corpus   *corpusCell
	itemType string
}

// corpusCell is the lazily built, shareable item catalog. It releases its
// graph reference the moment the catalog is built, and an unbuilt cell is
// replaced rather than carried when the discoverer is rebound — so a
// chain of engine snapshots never pins an old graph version just because
// the fusion path was never queried.
type corpusCell struct {
	once     sync.Once
	c        atomic.Pointer[catalog]
	g        *graph.Graph // build source; nilled inside once
	itemType string
}

func (cc *corpusCell) get() *catalog {
	cc.once.Do(func() {
		cc.c.Store(newCatalog(cc.g, cc.itemType))
		cc.g = nil
	})
	return cc.c.Load()
}

// built returns the catalog if it has been computed, else nil.
func (cc *corpusCell) built() *catalog { return cc.c.Load() }

// NewDiscoverer builds a discoverer over the graph. itemType scopes which
// nodes are candidate results ("" means every item-typed node).
func NewDiscoverer(g *graph.Graph, itemType string) *Discoverer {
	if itemType == "" {
		itemType = graph.TypeItem
	}
	return &Discoverer{
		g:        g,
		corpus:   &corpusCell{g: g, itemType: itemType},
		itemType: itemType,
	}
}

// WithGraph rebinds the discoverer to a new graph version. O(1). An
// already-built catalog is shared; an unbuilt one is re-targeted at the
// new graph, so no old graph version stays reachable. Correct only when
// no node carrying the item type or graph.TypeItem differs between the
// versions — the live engine uses it for mutation batches that touch no
// such node and falls back to NewDiscoverer otherwise.
func (d *Discoverer) WithGraph(g *graph.Graph) *Discoverer {
	cell := d.corpus
	if cell.built() == nil {
		cell = &corpusCell{g: g, itemType: d.itemType}
	}
	return &Discoverer{g: g, corpus: cell, itemType: d.itemType}
}

// SharesCatalog reports whether d and other read one built item catalog:
// true when other is d rebound by WithGraph after a fusion query built it.
func (d *Discoverer) SharesCatalog(other *Discoverer) bool {
	c := d.corpus.built()
	return c != nil && c == other.corpus.built()
}

// Discover runs the full Information Discoverer pipeline:
//
//  1. scope candidate items by the query's structural predicates
//     (Section 4: "treating the structural predicates as the constraints
//     defining the scope");
//  2. compute semantic relevance (BM25) for keyword queries;
//  3. select the social basis (Example 2) and compute social relevance as
//     the fraction of the basis endorsing each item;
//  4. fuse with score = α·semantic + (1-α)·social (normalized legs); an
//     empty query degenerates to pure social relevance, keyword-less
//     structural queries to pure social within scope;
//  5. return the MSG over the snapshot.
//
// Every stage reads the catalog: the scope is the catalog entries whose
// node passes the predicates, in ascending id order, and each leg writes
// into that positional slice, so no graph is built.
func (d *Discoverer) Discover(user graph.NodeID, q Query) (*MSG, error) {
	if !d.g.HasNode(user) {
		return nil, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	if q.K <= 0 {
		q.K = 10
	}
	if !(q.Alpha >= 0 && q.Alpha <= 1) {
		return nil, fmt.Errorf("discovery: alpha %g outside [0,1]", q.Alpha)
	}
	cat := d.corpus.get()

	// 1. Scope, and 2. semantic relevance, normalized to [0,1] by the max.
	inScope := core.Condition{Structural: append([]core.StructCond{
		core.Cond("type", d.itemType)}, q.Structural...)}.NodeMatcher()
	ranked := make([]Result, 0, len(cat.ids))
	maxSem := 0.0
	for p, id := range cat.ids {
		if n := d.g.Node(id); n == nil || !inScope(n) {
			continue
		}
		r := Result{Item: id}
		if len(q.Keywords) > 0 {
			r.Semantic = cat.corpus.BM25Doc(q.Keywords, cat.docs[p])
			if r.Semantic > maxSem {
				maxSem = r.Semantic
			}
		}
		ranked = append(ranked, r)
	}
	if maxSem > 0 {
		for i := range ranked {
			ranked[i].Semantic /= maxSem
		}
	}

	// 3. Social relevance over the selected basis, endorsers in basis order.
	basis := selectBasis(d.g, cat, user, q, 1)
	for _, b := range basis.Users {
		for _, t := range d.g.Acts(b) {
			if i, ok := slices.BinarySearchFunc(ranked, t, func(r Result, t graph.NodeID) int {
				return cmp.Compare(r.Item, t)
			}); ok {
				ranked[i].Endorsers = append(ranked[i].Endorsers, b)
			}
		}
	}
	social := false
	for i := range ranked {
		if es := ranked[i].Endorsers; len(es) > 0 {
			ranked[i].Social = float64(len(es)) / float64(len(basis.Users))
			social = true
		}
	}

	// 4. Fuse.
	alpha := q.Alpha
	switch {
	case len(q.Keywords) == 0:
		alpha = 0 // empty/structural-only query: social relevance only
	case !social:
		alpha = 1 // no usable social signal: semantic only
	}
	kept := ranked[:0]
	for _, r := range ranked {
		r.Score = alpha*r.Semantic + (1-alpha)*r.Social
		if r.Score > 0 {
			kept = append(kept, r)
		}
	}
	slices.SortFunc(kept, func(a, b Result) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(a.Item, b.Item)
	})
	switch {
	case len(kept) == 0:
		kept = nil
	case q.K < len(kept):
		kept = kept[:q.K]
	}

	return &MSG{User: user, Query: q, Basis: basis, Results: kept, Snapshot: d.g}, nil
}
