// Incremental index maintenance: the live-update answer to the problem
// Section 6.2 defers ("index maintenance upon updates"). ApplyDelta folds
// a graph-mutation changelog into the posting lists without a rebuild,
// returning a new copy-on-write snapshot: the receiver — and every list,
// tagger set and network set it holds — is never modified, so in-flight
// queries keep reading a consistent version while writers advance.
//
// Snapshot cost is O(1): the substrate's top-level maps and the by-tag
// list index are persistent tries, so cowClone and the lists share copy
// only constant-size headers. Per-batch work is then proportional to the
// delta — the touched tag shards, posting lists and inner sets — never to
// the corpus.
//
// Maintenance preserves the two structural invariants Build establishes:
// every (cluster, tag) list stays sorted by descending stored score
// (ascending item id on ties), and every stored score equals the Equation
// 1 upper bound max_{u∈C} score_k(i, u) over the current substrate — which
// for additive mutations (new taggings, new connections) only grows, so
// entries are raised in place, while retractions recompute the exact
// cluster maximum for the affected (cluster, tag, item) cells.
//
// The clustering is treated as fixed: re-clustering cadence is the Data
// Manager's policy decision, mirroring the paper's separation of index
// maintenance from cluster maintenance. Users who arrive after the
// partition was built are placed by cluster.Clustering.WithUser.
package index

import (
	"slices"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
)

// ApplyDelta returns a new index snapshot with the mutation batch applied,
// leaving the receiver untouched (RCU-style copy-on-write: untouched lists
// and substrate vectors are shared between versions, touched ones are
// replaced). Mutations that do not concern the tagging substrate — item
// nodes, match/belong links, unknown endpoints — are ignored, exactly as
// Extract ignores them. The returned index has Version() one higher than
// the receiver.
//
// g is the graph the receiver indexes as it stood before the batch: the
// substrate keeps no per-user tagging profile, so when a connection
// changes or a user leaves, that user's taggings are read from g's tag
// links and the batch's own. g is only read, and only during the call.
//
// Changelogs produced by graph.RecordInto replay exactly: removing a node
// arrives as its incident link removals followed by the node removal, and
// link consolidations carry their pre-merge state so re-asserted
// activities are not double counted.
func (ix *Index) ApplyDelta(g *graph.Graph, muts []graph.Mutation) *Index {
	d := &delta{
		g:    g,
		muts: muts,
		ix: &Index{
			data:       ix.data.cowClone(),
			clustering: ix.clustering,
			f:          ix.f,
			lists:      ix.lists, // persistent: O(1) share, COW below
			entries:    ix.entries,
			version:    ix.version + 1,
		},
		ownedLists: make(map[listKey]bool),
		edit:       persist.NewEdit(),
		userDelta:  make(map[graph.NodeID]bool),
		itemDelta:  make(map[graph.NodeID]bool),
		tagDelta:   make(map[string]bool),
	}
	for _, m := range muts {
		d.apply(m)
	}
	// Flush the buffered universe edits in one merge pass per slice.
	// Per-mutation InsertSorted/RemoveSorted would copy the whole
	// universe per arriving user/item/tag — O(batch x universe) on
	// arrival-heavy catch-up batches; buffering keeps the slices
	// O(universe) once per batch. Membership decisions above never read
	// these slices (they consult the substrate maps), so deferral is
	// invisible inside the batch.
	d.ix.data.Users = persist.ApplySortedDelta(d.ix.data.Users, d.userDelta)
	d.ix.data.Items = persist.ApplySortedDelta(d.ix.data.Items, d.itemDelta)
	d.ix.data.Tags = persist.ApplySortedDelta(d.ix.data.Tags, d.tagDelta)
	return d.ix
}

// cowClone returns a Data sharing every structure with the receiver:
// persistent maps, and copy-on-write universes and member vectors, which
// delta handlers replace rather than edit. O(1) — the snapshot is a header
// copy.
func (d *Data) cowClone() *Data {
	c := *d
	return &c
}

// delta tracks which posting slices — the only values below the
// persistent maps that are edited in place — the new snapshot already
// owns, so each is copied at most once per batch regardless of how many
// mutations touch it. Member vectors need no tracking: every write
// replaces one.
type delta struct {
	ix *Index
	// g and muts are ApplyDelta's arguments; bySrc indexes muts' tag
	// links by source, built on first use (taggingsOf).
	g          *graph.Graph
	muts       []graph.Mutation
	bySrc      map[graph.NodeID][]*graph.Link
	ownedLists map[listKey]bool // individual posting slice owned
	// edit is the batch's transient ownership token: repeated writes into
	// one trie region (hot tag shards, one user's vectors) claim each node
	// once instead of path-copying per mutation. It is born in ApplyDelta,
	// so every node an older snapshot can reach is copied on first touch,
	// and dies when ApplyDelta returns, before the new index is published.
	edit *persist.Edit
	// userDelta/itemDelta/tagDelta buffer the batch's sorted-universe
	// edits (true = insert, false = remove; last write wins), flushed by
	// ApplyDelta in one merge per slice.
	userDelta map[graph.NodeID]bool
	itemDelta map[graph.NodeID]bool
	tagDelta  map[string]bool
}

func (d *delta) apply(m graph.Mutation) {
	switch m.Kind {
	case graph.MutAddNode, graph.MutPutNode:
		if m.Node != nil && m.Node.HasType(graph.TypeUser) {
			d.addUser(m.Node.ID)
		}
	case graph.MutAddLink:
		d.applyLinkAdd(m.Link, nil, true)
	case graph.MutPutLink:
		// A consolidation re-asserts everything the link already carried;
		// only the diff against the pre-merge state is new activity. With
		// no recorded Prev (hand-built mutation), treat the whole link as
		// an idempotent ensure: existing facts are not re-counted.
		d.applyLinkAdd(m.Link, m.Prev, m.Prev != nil)
	case graph.MutRemoveLink:
		d.applyLinkRemove(m.Link)
	case graph.MutRemoveNode:
		if m.Node == nil {
			return
		}
		if m.Node.HasType(graph.TypeUser) {
			d.removeUser(m.Node.ID)
		}
		// Roles are not exclusive: Extract indexes any tag-link target,
		// so a user node can itself be a tagged item. Retract that role
		// too.
		d.removeItem(m.Node.ID)
	}
}

func (d *delta) applyLinkAdd(l, prev *graph.Link, countDups bool) {
	if l == nil {
		return
	}
	if l.HasType(graph.TypeConnect) && (prev == nil || !prev.HasType(graph.TypeConnect)) {
		d.addConnect(l.Src, l.Tgt, countDups)
	}
	if l.HasType(graph.SubtypeTag) {
		var prevTags []string
		if prev != nil && prev.HasType(graph.SubtypeTag) {
			prevTags = prev.Attrs().All("tags")
		}
		remaining := make(map[string]int, len(prevTags))
		for _, t := range prevTags {
			remaining[t]++
		}
		for _, tag := range l.Attrs().All("tags") {
			if remaining[tag] > 0 {
				remaining[tag]-- // the link asserted this before the merge
				continue
			}
			d.addTagging(l.Src, l.Tgt, tag, countDups)
		}
	}
}

func (d *delta) applyLinkRemove(l *graph.Link) {
	if l == nil {
		return
	}
	if l.HasType(graph.TypeConnect) {
		d.removeConnect(l.Src, l.Tgt)
	}
	if l.HasType(graph.SubtypeTag) {
		for _, tag := range l.Attrs().All("tags") {
			d.removeTagging(l.Src, l.Tgt, tag)
		}
	}
}

// addTagging folds "user tagged item with tag" into the substrate and
// raises the affected entries — precisely (cluster(v), tag, item) for
// every v in the tagger's network, since a monotone f only grows when a
// tagger is added.
func (d *delta) addTagging(user, item graph.NodeID, tag string, countDup bool) {
	data := d.ix.data
	byItem, hadTag := data.Taggers.Get(tag)
	taggers, hadItem := byItem.Get(item)
	if has(taggers, user) {
		if countDup {
			data.noteTagDup(d.edit, taggingKey{tag, item, user}, 1)
		}
		return
	}
	if !hadTag {
		byItem = NewItemTaggers()
		d.tagDelta[tag] = true
	}
	if !hadItem {
		d.itemDelta[item] = true
	}
	data.Taggers = data.Taggers.SetWith(d.edit, tag,
		byItem.SetWith(d.edit, item, persist.InsertSorted(taggers, user)))
	for _, v := range data.Network.At(user) {
		cid := d.ix.clustering.Of(v)
		if cid < 0 {
			continue
		}
		if s := data.ScoreTag(item, v, tag, d.ix.f); s > 0 {
			d.raise(listKey{cid, tag}, item, s)
		}
	}
}

// removeTagging retracts one assertion of "user tagged item with tag".
// Parallel assertions (other links stating the same fact) only decrement
// the refcount; retracting the last one shrinks the tagger vector, so the
// affected cluster maxima are recomputed exactly.
func (d *delta) removeTagging(user, item graph.NodeID, tag string) {
	data := d.ix.data
	byItem, ok := data.Taggers.Get(tag)
	if !ok {
		return
	}
	taggers := byItem.At(item)
	if !has(taggers, user) {
		return
	}
	key := taggingKey{tag, item, user}
	if data.tagDups.At(key) > 0 {
		data.noteTagDup(d.edit, key, -1)
		return
	}
	taggers = persist.RemoveSorted(taggers, user)
	emptied := len(taggers) == 0
	switch {
	case !emptied:
		data.Taggers = data.Taggers.SetWith(d.edit, tag, byItem.SetWith(d.edit, item, taggers))
	case byItem.Len() == 1:
		data.Taggers = data.Taggers.DeleteWith(d.edit, tag)
		d.tagDelta[tag] = false
	default:
		data.Taggers = data.Taggers.SetWith(d.edit, tag, byItem.DeleteWith(d.edit, item))
	}
	// A non-empty tagger vector proves the item is still tagged; the
	// vocabulary-wide scan is only needed once this (tag, item) cell
	// drained.
	if emptied && !d.itemTagged(item) {
		d.itemDelta[item] = false
	}
	for _, v := range data.Network.At(user) {
		cid := d.ix.clustering.Of(v)
		if cid < 0 {
			continue
		}
		d.recompute(listKey{cid, tag}, item)
	}
}

// addConnect folds a new undirected connection between two known users.
// Each endpoint's scores can only grow — by the other endpoint's taggings
// — so the affected entries are raised in place.
func (d *delta) addConnect(u, v graph.NodeID, countDup bool) {
	data := d.ix.data
	if !data.Network.Has(u) || !data.Network.Has(v) {
		return // mirror Extract: connections only between user nodes
	}
	if has(data.Network.At(u), v) {
		if countDup {
			data.noteConnDup(d.edit, edgeOf(u, v), 1)
		}
		return
	}
	data.Network = withMember(data.Network, d.edit, u, v)
	data.Network = withMember(data.Network, d.edit, v, u)
	d.raisePair(u, v)
	if u != v {
		d.raisePair(v, u)
	}
}

// removeConnect retracts one assertion of the connection between u and v.
func (d *delta) removeConnect(u, v graph.NodeID) {
	data := d.ix.data
	if !has(data.Network.At(u), v) {
		return
	}
	key := edgeOf(u, v)
	if data.connDups.At(key) > 0 {
		data.noteConnDup(d.edit, key, -1)
		return
	}
	data.Network = withoutMember(data.Network, d.edit, u, v)
	data.Network = withoutMember(data.Network, d.edit, v, u)
	d.recomputePair(u, v)
	if u != v {
		d.recomputePair(v, u)
	}
}

// taggingsOf calls fn for every (item, tag) that u tags at this point of
// the batch. A standing tagging by u was asserted either by one of u's tag
// links in the pre-batch graph, which the receiver's substrate indexes, or
// by one of the batch's own tag links from u; a candidate from either
// counts only while u stands in Taggers[tag][item]. That check runs per
// candidate, so fn may retract the pair it is handed. Parallel links
// asserting one tagging hand it to fn once each.
func (d *delta) taggingsOf(u graph.NodeID, fn func(item graph.NodeID, tag string)) {
	visit := func(ls []*graph.Link) {
		for _, l := range ls {
			if !l.HasType(graph.SubtypeTag) {
				continue
			}
			for _, tag := range l.Attrs().All("tags") {
				if has(d.ix.data.Taggers.At(tag).At(l.Tgt), u) {
					fn(l.Tgt, tag)
				}
			}
		}
	}
	visit(d.g.Out(u))
	if d.bySrc == nil {
		// Built once per batch, and only here: connection changes and
		// user removals ask, so tagging-only batches never pay for it.
		d.bySrc = make(map[graph.NodeID][]*graph.Link)
		for _, m := range d.muts {
			if (m.Kind == graph.MutAddLink || m.Kind == graph.MutPutLink) &&
				m.Link != nil && m.Link.HasType(graph.SubtypeTag) {
				d.bySrc[m.Link.Src] = append(d.bySrc[m.Link.Src], m.Link)
			}
		}
	}
	visit(d.bySrc[u])
}

// raisePair raises x's entries for everything other tagged: x just gained
// other in its network, so score_tag(i, x) grew exactly for other's
// taggings.
func (d *delta) raisePair(x, other graph.NodeID) {
	cid := d.ix.clustering.Of(x)
	if cid < 0 {
		return
	}
	d.taggingsOf(other, func(item graph.NodeID, tag string) {
		if s := d.ix.data.ScoreTag(item, x, tag, d.ix.f); s > 0 {
			d.raise(listKey{cid, tag}, item, s)
		}
	})
}

// recomputePair recomputes x's cluster entries for everything other
// tagged: x just lost other from its network, so those scores may shrink.
func (d *delta) recomputePair(x, other graph.NodeID) {
	cid := d.ix.clustering.Of(x)
	if cid < 0 {
		return
	}
	d.taggingsOf(other, func(item graph.NodeID, tag string) {
		d.recompute(listKey{cid, tag}, item)
	})
}

// addUser registers a user who arrived after the index was built: empty
// network, placed into the (copy-on-write extended) clustering.
func (d *delta) addUser(u graph.NodeID) {
	data := d.ix.data
	if data.Network.Has(u) {
		return
	}
	data.Network = data.Network.SetWith(d.edit, u, nil)
	d.userDelta[u] = true
	d.ix.clustering = d.ix.clustering.WithUser(u)
}

// removeUser retracts a user from the substrate. Changelogs produced by a
// recorder arrive with the user's incident links already removed; any
// facts still standing (hand-built streams) are retracted defensively
// first. The clustering keeps the departed member — a cluster's upper
// bound over a gone user is simply never the maximum again.
func (d *delta) removeUser(u graph.NodeID) {
	data := d.ix.data
	net, ok := data.Network.Get(u)
	if !ok {
		return
	}
	for _, v := range net {
		data.connDups = data.connDups.DeleteWith(d.edit, edgeOf(u, v))
		d.removeConnect(u, v)
	}
	d.taggingsOf(u, func(item graph.NodeID, tag string) {
		data.tagDups = data.tagDups.DeleteWith(d.edit, taggingKey{tag, item, u})
		d.removeTagging(u, item, tag)
	})
	data.Network = data.Network.DeleteWith(d.edit, u)
	d.userDelta[u] = false
}

// removeItem retracts every tagging of a removed non-user node. Recorded
// changelogs arrive with the node's incident tag links already removed
// (the cascade emits them first), making this a no-op; hand-built
// MutRemoveNode mutations rely on it so the index never serves postings
// for an item the graph no longer holds.
func (d *delta) removeItem(item graph.NodeID) {
	data := d.ix.data
	for _, tag := range data.Taggers.Keys() {
		for _, u := range data.Taggers.At(tag).At(item) {
			data.tagDups = data.tagDups.DeleteWith(d.edit, taggingKey{tag, item, u})
			d.removeTagging(u, item, tag)
		}
	}
}

// recompute re-derives one posting entry exactly as Build would: the
// maximum of f over the cluster members' intersection counts, present only
// when positive.
func (d *delta) recompute(k listKey, item graph.NodeID) {
	data := d.ix.data
	taggers := data.Taggers.At(k.tag).At(item)
	best := 0.0
	for _, m := range d.ix.clustering.Members(k.cluster) {
		net, ok := data.Network.Get(m)
		if !ok {
			continue
		}
		c := persist.IntersectionSize(net, taggers)
		if c <= 0 {
			continue
		}
		if s := d.ix.f(c); s > best {
			best = s
		}
	}
	l := d.ix.lists.At(k.tag).At(k.cluster)
	i := entryOf(l, item)
	if (i < 0 && best <= 0) || (i >= 0 && l[i].Score == best) {
		return // the list already says so
	}
	l, n := setEntry(d.ownList(k, i < 0), item, best)
	d.storeList(k, l, n)
}

// raise lifts item's entry in list k to at least score, which is
// positive.
func (d *delta) raise(k listKey, item graph.NodeID, score float64) {
	l := d.ix.lists.At(k.tag).At(k.cluster)
	i := entryOf(l, item)
	if i >= 0 && l[i].Score >= score {
		return // the list already says so
	}
	l, n := setEntry(d.ownList(k, i < 0), item, score)
	d.storeList(k, l, n)
}

// entryOf returns the position of item's entry in l, or -1.
func entryOf(l []Entry, item graph.NodeID) int {
	return slices.IndexFunc(l, func(e Entry) bool { return e.Item == item })
}

func (d *delta) storeList(k listKey, l []Entry, entryDelta int) {
	shard, ok := d.ix.lists.Get(k.tag)
	switch {
	case len(l) == 0:
		if ok {
			shard = shard.DeleteWith(d.edit, k.cluster) // Build never stores empty lists
			if shard.Len() == 0 {
				d.ix.lists = d.ix.lists.DeleteWith(d.edit, k.tag)
			} else {
				d.ix.lists = d.ix.lists.SetWith(d.edit, k.tag, shard)
			}
		}
	default:
		if !ok {
			shard = newClusterLists()
		}
		d.ix.lists = d.ix.lists.SetWith(d.edit, k.tag, shard.SetWith(d.edit, k.cluster, l))
	}
	d.ix.entries += entryDelta
}

// ownList returns the posting list for k, copied from the shared parent
// version on first write, with room for one more entry when the write
// inserts one: append would otherwise double the copy, and slack lives as
// long as the list. The enclosing shard and by-tag maps are persistent, so
// only the one slice is ever duplicated.
func (d *delta) ownList(k listKey, insert bool) []Entry {
	l := d.ix.lists.At(k.tag).At(k.cluster)
	if d.ownedLists[k] {
		return l
	}
	d.ownedLists[k] = true
	if l == nil {
		return nil
	}
	room := len(l)
	if insert {
		room++
	}
	c := make([]Entry, len(l), room)
	copy(c, l)
	return c
}

// itemTagged reports whether any tagger remains for item under any tag.
func (d *delta) itemTagged(item graph.NodeID) bool {
	tagged := false
	d.ix.data.Taggers.Range(func(_ string, byItem ItemTaggers) bool {
		tagged = len(byItem.At(item)) > 0
		return !tagged
	})
	return tagged
}

// withMember returns m with v added to the vector under k, copy-on-write;
// m itself when the vector already holds v.
func withMember(m persist.Map[graph.NodeID, []graph.NodeID], e *persist.Edit, k, v graph.NodeID) persist.Map[graph.NodeID, []graph.NodeID] {
	old := m.At(k)
	if s := persist.InsertSorted(old, v); len(s) != len(old) {
		return m.SetWith(e, k, s)
	}
	return m
}

// withoutMember returns m with v removed from the vector under k, keeping
// the key; m itself when the vector lacks v.
func withoutMember(m persist.Map[graph.NodeID, []graph.NodeID], e *persist.Edit, k, v graph.NodeID) persist.Map[graph.NodeID, []graph.NodeID] {
	old := m.At(k)
	if s := persist.RemoveSorted(old, v); len(s) != len(old) {
		return m.SetWith(e, k, s)
	}
	return m
}

// setEntry pins item's entry to exactly score — inserting it when absent,
// removing it when score is not positive, matching Build's "entries exist
// only for positive upper bounds" invariant — and restores
// descending-score, ascending-id order in either direction (scores can
// fall after a retraction). It returns the list and the entry-count delta.
// The slice is mutated in place; callers must own it first
// (delta.ownList).
func setEntry(l []Entry, item graph.NodeID, score float64) ([]Entry, int) {
	i, n := entryOf(l, item), 0
	switch {
	case i < 0 && score <= 0:
		return l, 0
	case i < 0:
		l = append(l, Entry{item, score})
		i, n = len(l)-1, 1
	case score <= 0:
		return append(l[:i], l[i+1:]...), -1
	case l[i].Score == score:
		return l, 0
	default:
		l[i].Score = score
	}
	for i > 0 && less(l[i-1], l[i]) {
		l[i-1], l[i] = l[i], l[i-1]
		i--
	}
	for i+1 < len(l) && less(l[i], l[i+1]) {
		l[i], l[i+1] = l[i+1], l[i]
		i++
	}
	return l, n
}

// less reports whether a should sort after b (descending score, ascending
// item id).
func less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}
