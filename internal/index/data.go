// Package index implements the activity-driven storage study of Section
// 6.2: network-aware inverted lists over tagging actions and user-cluster
// lists with score upper bounds (Equation 1). Top-k query processing over
// these lists, with exact rescoring, lives in internal/topk.
//
// The paper's score model: for a keyword-only query Q = k1..kn issued by
// user u,
//
//	score_k(i, u) = f(network(u) ∩ taggers(i, k))   (f monotone, = count)
//	score(i, u)   = g(score_k1, ..., score_kn)      (g monotone, = sum)
//
// A per-(tag,user) index stores exact scores but explodes in size (the
// paper estimates ~1TB for a moderate site); per-(tag,cluster) indexes
// store max upper bounds over the cluster's members, shrinking storage at
// the cost of exact rescoring during top-k. Because singleton clusters make
// the upper bound exact and one global cluster recovers classic IR lists,
// a single implementation parameterized by the clustering covers the whole
// design space of Section 6.2.
package index

import (
	"cmp"
	"slices"
	"sort"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
	"socialscope/internal/scoring"
)

// ItemTaggers is one tag's inner index: item → the users who tagged it
// with that tag, as an ascending vector without repeats. Persistent, so
// substrate snapshots share it wholesale and a delta copies only the
// touched (item → vector) trie path — the inner map of a popular tag grows
// with the corpus, and cloning it per batch would reintroduce an O(items)
// term on the live path.
type ItemTaggers = persist.Map[graph.NodeID, []graph.NodeID]

// NewItemTaggers returns an empty per-tag item index.
func NewItemTaggers() ItemTaggers {
	return persist.NewIntMap[graph.NodeID, []graph.NodeID]()
}

// Data is the tagging substrate extracted from a social content graph:
// taggers(i,k), network(u), and the universe of users, items and tags.
//
// Everything is persistent (structurally shared): the by-tag and by-user
// maps are copy-on-write tries, and the sorted universes and the member
// vectors below them follow a strict copy-on-write discipline — a write
// replaces a vector (persist.InsertSorted/RemoveSorted), never edits it.
// Snapshotting a Data (cowClone, the ApplyDelta path) therefore copies a
// constant-size header — O(1), not O(users+items+tags) — and every
// snapshot shares all untouched storage with its ancestors. Construct with
// NewData or Extract; the zero Data is not ready for use.
//
// Network restates a fact the graph also answers (Graph.Connections) and
// keeps its own copy: every exact rescore reads it, and Connections derives
// and sorts the set on each call. §6.2's network counts users only, so
// Network(u) leaves out non-user endpoints. Nothing else the graph answers
// is mirrored here: the taggings of one user, which ApplyDelta needs when a
// connection changes or a user leaves, it reads from the pre-batch graph it
// is handed. TestSubstrateAgreesWithGraphFacts pins both relations.
type Data struct {
	// Users, Items and Tags are the sorted universes. They are rebound —
	// never mutated in place — when the universe changes, so snapshots can
	// share them safely.
	Users []graph.NodeID
	Items []graph.NodeID
	Tags  []string

	// Taggers[tag][item] = the users who tagged item with tag.
	Taggers persist.Map[string, ItemTaggers]
	// Network[user] = users connected to user (either direction). Every
	// user has an entry, empty or not: presence marks a user.
	Network persist.Map[graph.NodeID, []graph.NodeID]

	// tagDups and connDups count duplicate source records beyond the first:
	// two distinct links asserting the same (user, item, tag) action or the
	// same undirected connection. The vectors above hold each fact once,
	// so removing one of several parallel links must decrement a refcount
	// instead of retracting the fact — otherwise incremental maintenance
	// would diverge from a from-scratch Extract of the surviving links.
	tagDups  persist.Map[taggingKey, int]
	connDups persist.Map[edgeKey, int]
}

// NewData returns an empty, ready-to-use substrate.
func NewData() *Data {
	return &Data{
		Taggers: persist.NewStringMap[ItemTaggers](),
		Network: persist.NewIntMap[graph.NodeID, []graph.NodeID](),
		tagDups: persist.NewMap[taggingKey, int](hashTaggingKey),
		connDups: persist.NewMap[edgeKey, int](func(k edgeKey) uint64 {
			return persist.Mix64(persist.Hash64(uint64(k.a)), persist.Hash64(uint64(k.b)))
		}),
	}
}

// taggingKey identifies one (tag, item, user) assertion.
type taggingKey struct {
	tag  string
	item graph.NodeID
	user graph.NodeID
}

func hashTaggingKey(k taggingKey) uint64 {
	return persist.Mix64(persist.HashString(k.tag),
		persist.Mix64(persist.Hash64(uint64(k.item)), persist.Hash64(uint64(k.user))))
}

// edgeKey identifies one undirected connection, normalized a <= b.
type edgeKey struct {
	a, b graph.NodeID
}

func edgeOf(u, v graph.NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// noteTagDup adds delta to the repeat count of tagging k, writing under
// e; a count that reaches 0 is dropped.
func (d *Data) noteTagDup(e *persist.Edit, k taggingKey, delta int) {
	if n := d.tagDups.At(k) + delta; n > 0 {
		d.tagDups = d.tagDups.SetWith(e, k, n)
	} else {
		d.tagDups = d.tagDups.DeleteWith(e, k)
	}
}

// noteConnDup is noteTagDup for the repeat count of connection k.
func (d *Data) noteConnDup(e *persist.Edit, k edgeKey, delta int) {
	if n := d.connDups.At(k) + delta; n > 0 {
		d.connDups = d.connDups.SetWith(e, k, n)
	} else {
		d.connDups = d.connDups.DeleteWith(e, k)
	}
}

// Extract walks the graph once and builds the tagging substrate. Tag
// values come from the "tags" attribute of links typed act/tag; network
// membership from connect links between users, symmetric.
//
// Construction is a cold bulk build: the walk collects flat records per
// family (per tag for the taggers), one sort groups each, and each group
// becomes one exact-size vector; each map is then laid out by one
// persist Build. The maps are byte-identical (canonical trie shapes) to
// what persistent per-write assembly produces, at a fraction of the
// allocation.
func Extract(g *graph.Graph) *Data {
	d := NewData()
	nodes := g.Nodes()
	for _, n := range nodes {
		if n.HasType(graph.TypeUser) {
			d.Users = append(d.Users, n.ID)
		}
	}
	var conns []idPair                 // (u, v): v is in network(u)
	byTag := make(map[string][]idPair) // (item, tagger) per assertion
	for _, n := range nodes {
		for _, l := range g.Out(n.ID) {
			switch {
			case l.HasType(graph.TypeConnect):
				if !has(d.Users, l.Src) || !has(d.Users, l.Tgt) {
					continue
				}
				conns = append(conns, idPair{l.Src, l.Tgt})
				if l.Src != l.Tgt {
					conns = append(conns, idPair{l.Tgt, l.Src})
				}
			case l.HasType(graph.SubtypeTag):
				for _, tag := range l.Attrs().All("tags") {
					byTag[tag] = append(byTag[tag], idPair{l.Tgt, l.Src})
				}
			}
		}
	}

	// A connection asserted k times shows up k times in each direction;
	// its repeats are counted once, from the direction with u <= v.
	conns = sortedRuns(conns, func(p idPair, n int) {
		if n > 1 && p.u <= p.v {
			d.noteConnDup(nil, edgeOf(p.u, p.v), n-1)
		}
	})
	// Every network is an exact-size window of one vector: writes replace
	// a network only when a connect link comes or goes, which is rare.
	members := make([]graph.NodeID, len(conns))
	for i, p := range conns {
		members[i] = p.v
	}
	networks := make([][]graph.NodeID, len(d.Users))
	for i, u := range d.Users {
		n := 0
		for n < len(conns) && conns[n].u == u {
			n++
		}
		if n > 0 {
			networks[i] = members[:n:n]
		}
		members, conns = members[n:], conns[n:]
	}
	d.Network = d.Network.Build(d.Users, networks)

	// taggers(i, k), one tag at a time, its assertions sorted by item, then
	// tagger.
	for tag := range byTag {
		d.Tags = append(d.Tags, tag)
	}
	slices.Sort(d.Tags)
	shards := make([]ItemTaggers, len(d.Tags))
	var buf, items []graph.NodeID
	var taggers [][]graph.NodeID
	for ti, tag := range d.Tags {
		recs := sortedRuns(byTag[tag], func(p idPair, n int) {
			if n > 1 {
				d.noteTagDup(nil, taggingKey{tag, p.u, p.v}, n-1)
			}
		})
		items, taggers = items[:0], taggers[:0]
		for i := 0; i < len(recs); {
			item := recs[i].u
			buf = buf[:0]
			for ; i < len(recs) && recs[i].u == item; i++ {
				buf = append(buf, recs[i].v)
			}
			items = append(items, item)
			taggers = append(taggers, persist.CloneExact(buf))
		}
		shards[ti] = NewItemTaggers().Build(items, taggers)
		d.Items = append(d.Items, items...)
	}
	d.Taggers = d.Taggers.Build(d.Tags, shards)
	slices.Sort(d.Items)
	d.Items = slices.Compact(d.Items)
	return d
}

// idPair is one record of an Extract walk: a key and a member.
type idPair struct{ u, v graph.NodeID }

// sortedRuns sorts recs by key, then member, reports each run of equal
// records with its length to run, and returns recs with every run reduced
// to one record.
func sortedRuns(recs []idPair, run func(idPair, int)) []idPair {
	slices.SortFunc(recs, func(a, b idPair) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	out := recs[:0]
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j] == recs[i] {
			j++
		}
		run(recs[i], j-i)
		out = append(out, recs[i])
		i = j
	}
	return out
}

// has reports whether the ascending vector s holds v.
func has[T cmp.Ordered](s []T, v T) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// ScoreTag computes the exact per-keyword score: f(|network(u) ∩
// taggers(i,k)|), the two vectors merged. Unknown users or tags score 0.
func (d *Data) ScoreTag(item, user graph.NodeID, tag string, f scoring.UserSetFn) float64 {
	byItem, ok := d.Taggers.Get(tag)
	if !ok {
		return 0
	}
	taggers, ok := byItem.Get(item)
	if !ok {
		return 0
	}
	net, ok := d.Network.Get(user)
	if !ok {
		return 0
	}
	return f(persist.IntersectionSize(net, taggers))
}

// Score computes the exact combined score g(score_k1, ..., score_kn).
func (d *Data) Score(item, user graph.NodeID, tags []string,
	f scoring.UserSetFn, g scoring.AggregateFn) float64 {
	per := make([]float64, len(tags))
	for i, tag := range tags {
		per[i] = d.ScoreTag(item, user, tag, f)
	}
	return g(per)
}

// Result is one ranked item.
type Result struct {
	Item  graph.NodeID
	Score float64
}

// ExactTopK is the brute-force ground truth: score every item for the user
// and return the k best (ties broken by ascending item id).
func (d *Data) ExactTopK(user graph.NodeID, tags []string, k int,
	f scoring.UserSetFn, g scoring.AggregateFn) []Result {
	results := make([]Result, 0, len(d.Items))
	for _, item := range d.Items {
		if s := d.Score(item, user, tags, f, g); s > 0 {
			results = append(results, Result{item, s})
		}
	}
	sortResults(results)
	if k < len(results) {
		results = results[:k]
	}
	return results
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Item < rs[j].Item
	})
}
