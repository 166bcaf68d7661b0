package discovery

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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
// Every stage reads the catalog a column at a time: the scope is the
// ascending positions of the entries that pass the predicates, each leg
// is a column over that scope, and only the top K become Results. No
// graph is built, and the legs and results are sized by the scope and K,
// not by the catalog.
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
	scope := cat.scope(d.itemType, q.Structural)
	var sem []float64
	if len(q.Keywords) > 0 {
		sem = cat.bm25(q.Keywords, scope)
		maxSem := 0.0
		for _, s := range sem {
			maxSem = max(maxSem, s)
		}
		if maxSem > 0 {
			for i := range sem {
				sem[i] /= maxSem
			}
		}
	}

	// 3. Social relevance over the selected basis: how many basis users
	// acted on each scoped entry.
	basis := selectBasis(d.g, cat, user, q, 1)
	var acts []endorsement
	var endorsed []int32
	if len(scope) > 0 {
		n := 0
		for _, u := range basis.Users {
			n += len(d.g.Acts(u))
		}
		acts = make([]endorsement, 0, n)
		for b, u := range basis.Users {
			for _, t := range d.g.Acts(u) {
				if i, ok := cat.scopeIndex(scope, t); ok {
					acts = append(acts, endorsement{int32(i), int32(b)})
				}
			}
		}
	}
	social := len(acts) > 0
	if social {
		endorsed = make([]int32, len(scope))
		for _, a := range acts {
			endorsed[a.i]++
		}
	}
	socialAt := func(i int) float64 {
		if !social || endorsed[i] == 0 {
			return 0
		}
		return float64(endorsed[i]) / float64(len(basis.Users))
	}

	// 4. Fuse, keeping the top K by bounded selection.
	alpha := q.Alpha
	switch {
	case len(q.Keywords) == 0:
		alpha = 0 // empty/structural-only query: social relevance only
	case !social:
		alpha = 1 // no usable social signal: semantic only
	}
	top := topK{k: q.K, heap: make([]ranked, 0, min(q.K, len(scope)))}
	for i := range scope {
		semantic := 0.0
		if sem != nil {
			semantic = sem[i]
		}
		if score := alpha*semantic + (1-alpha)*socialAt(i); score > 0 {
			top.offer(ranked{score, int32(i)})
		}
	}
	var results []Result
	if best := top.sorted(); len(best) > 0 {
		results = make([]Result, len(best))
		for n, c := range best {
			r := &results[n]
			r.Item, r.Score, r.Social = cat.ids[scope[c.i]], c.score, socialAt(int(c.i))
			if sem != nil {
				r.Semantic = sem[c.i]
			}
		}
		if social {
			collectEndorsers(basis.Users, acts, endorsed, best, results)
		}
	}
	return &MSG{User: user, Query: q, Basis: basis, Results: results, Snapshot: d.g}, nil
}

// endorsement is basis user b (its index in the basis) acting on the
// scoped entry i.
type endorsement struct{ i, b int32 }

// collectEndorsers fills each result's endorsers, the basis users that
// acted on it, in basis order. acts lists the endorsements in basis
// order, endorsed holds each scoped entry's count and is overwritten, and
// best is the results' scope indexes.
func collectEndorsers(basis []graph.NodeID, acts []endorsement, endorsed []int32, best []ranked, results []Result) {
	total := 0
	for _, c := range best {
		total += int(endorsed[c.i])
	}
	buf, off := make([]graph.NodeID, total), 0
	for n, c := range best {
		if e := int(endorsed[c.i]); e > 0 {
			results[n].Endorsers = buf[off : off : off+e]
			off += e
		}
	}
	// From here endorsed marks a kept entry with -(its rank + 1).
	clear(endorsed)
	for n, c := range best {
		endorsed[c.i] = -int32(n + 1)
	}
	for _, a := range acts {
		if rank := endorsed[a.i]; rank < 0 {
			r := &results[-rank-1]
			r.Endorsers = append(r.Endorsers, basis[a.b])
		}
	}
}

// scopeIndex returns the index in scope of node id's catalog entry.
func (c *catalog) scopeIndex(scope []int32, id graph.NodeID) (int, bool) {
	p, ok := slices.BinarySearch(c.ids, id)
	if !ok {
		return 0, false
	}
	return slices.BinarySearch(scope, int32(p))
}

// ranked is a scoped entry's fused score and its index in the scope, whose
// order is the entries' id order.
type ranked struct {
	score float64
	i     int32
}

// before is the result order: score descending, ties by ascending id.
func (a ranked) before(b ranked) bool {
	return a.score > b.score || a.score == b.score && a.i < b.i
}

// topK keeps the k best entries offered, by ranked.before, in a heap whose
// root is the worst kept.
type topK struct {
	k    int
	heap []ranked
}

func (t *topK) offer(r ranked) {
	h := t.heap
	if len(h) < t.k {
		h = append(h, r)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[parent].before(h[i]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		t.heap = h
		return
	}
	if !r.before(h[0]) {
		return
	}
	h[0] = r
	for i := 0; ; {
		worst, l := i, 2*i+1
		if l < len(h) && h[worst].before(h[l]) {
			worst = l
		}
		if r := l + 1; r < len(h) && h[worst].before(h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// sorted returns the kept entries best first.
func (t *topK) sorted() []ranked {
	slices.SortFunc(t.heap, func(a, b ranked) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	return t.heap
}
