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
	"sort"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
	"socialscope/internal/scoring"
)

// ApplyDelta returns a new index snapshot with the mutation batch applied,
// leaving the receiver untouched (RCU-style copy-on-write: untouched lists
// and substrate sets are shared between versions, touched ones are copied
// before the first write). Mutations that do not concern the tagging
// substrate — item nodes, match/belong links, unknown endpoints — are
// ignored, exactly as Extract ignores them. The returned index has
// Version() one higher than the receiver.
//
// Changelogs produced by graph.RecordInto replay exactly: removing a node
// arrives as its incident link removals followed by the node removal, and
// link consolidations carry their pre-merge state so re-asserted
// activities are not double counted.
func (ix *Index) ApplyDelta(muts []graph.Mutation) *Index {
	ix.shared = true
	d := &delta{
		ix: &Index{
			data:       ix.data.cowClone(),
			clustering: ix.clustering,
			f:          ix.f,
			lists:      ix.lists, // persistent: O(1) share, COW below
			entries:    ix.entries,
			version:    ix.version + 1,
			shared:     true,
		},
		ownedLists:   make(map[listKey]bool),
		ownedTagSets: make(map[string]map[graph.NodeID]bool),
		ownedNets:    make(map[graph.NodeID]bool),
		ownedItems:   make(map[graph.NodeID]bool),
		ownedTags:    make(map[graph.NodeID]bool),
		userDelta:    make(map[graph.NodeID]bool),
		itemDelta:    make(map[graph.NodeID]bool),
		tagDelta:     make(map[string]bool),
	}
	// Adaptive bulk window: batches of BulkDeltaThreshold or more route
	// their map writes through a persist transient, so repeated writes
	// into the same trie region (hot tag shards, the same user's sets)
	// claim each node once instead of path-copying per mutation. Small
	// batches keep the pure persistent path — their O(delta · log n)
	// profile and allocation behavior are unchanged. Either way nothing
	// the receiver (or any older snapshot) can reach is ever mutated: the
	// edit token is born here, so every pre-existing node is claimed
	// (copied) on first touch, and the token dies when this call returns —
	// before the new index can be published to readers.
	if len(muts) >= BulkDeltaThreshold {
		d.edit = persist.NewEdit()
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

// BulkDeltaThreshold is the ApplyDelta batch size at which delta
// application opens a transient window over the new snapshot's maps. It
// mirrors graph.BulkApplyThreshold so one Engine.Apply batch switches
// both layers together.
const BulkDeltaThreshold = graph.BulkApplyThreshold

// cowClone returns a Data sharing every structure with the receiver:
// persistent top-level maps, copy-on-write universe slices, and the inner
// tagger/network/item sets, which delta handlers copy before their first
// write. O(1) — the snapshot is a header copy. Both versions are marked
// as sharing inner structures so the in-place write APIs
// (Data.AddTagging) switch to their replace-not-mutate path.
func (d *Data) cowClone() *Data {
	d.sharedInner = true
	c := *d
	return &c
}

// delta tracks which shared leaf structures — posting slices and inner
// sets, the only mutable values below the persistent maps — the new
// snapshot already owns, so each is copied at most once per batch
// regardless of how many mutations touch it. The maps themselves need no
// tracking: they are persistent, copy-on-write by construction.
type delta struct {
	ix           *Index
	ownedLists   map[listKey]bool                 // individual posting slice owned
	ownedTagSets map[string]map[graph.NodeID]bool // Taggers[tag][item] set owned
	ownedNets    map[graph.NodeID]bool
	ownedItems   map[graph.NodeID]bool // ItemsOf[user] set owned
	ownedTags    map[graph.NodeID]bool // tagsOf[user] set owned
	// edit is the transient ownership token of a large batch (nil below
	// BulkDeltaThreshold: pure persistent writes). It never outlives the
	// ApplyDelta call that created it.
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
			prevTags = prev.Attrs.All("tags")
		}
		remaining := make(map[string]int, len(prevTags))
		for _, t := range prevTags {
			remaining[t]++
		}
		for _, tag := range l.Attrs.All("tags") {
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
		for _, tag := range l.Attrs.All("tags") {
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
	var set scoring.Set[graph.NodeID]
	hadItem := false
	if hadTag {
		set, hadItem = byItem.Get(item)
	}
	if hadItem && set.Has(user) {
		if countDup {
			data.noteTagDup(taggingKey{tag, item, user}, 1)
		}
		return
	}
	if !hadTag {
		d.tagDelta[tag] = true
	}
	if !hadItem {
		d.itemDelta[item] = true
	}
	set = d.ownTagSet(tag, item)
	set.Add(user)
	if data.ItemsOf.Has(user) {
		d.ownItemsOf(user).Add(item)
	}
	if data.tagsOf.Has(user) {
		d.ownTagsOf(user).Add(tag)
	}
	for v := range data.Network.At(user) {
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
// the refcount; retracting the last one shrinks the tagger set, so the
// affected cluster maxima are recomputed exactly.
func (d *delta) removeTagging(user, item graph.NodeID, tag string) {
	data := d.ix.data
	byItem, ok := data.Taggers.Get(tag)
	if !ok {
		return
	}
	set, ok := byItem.Get(item)
	if !ok || !set.Has(user) {
		return
	}
	key := taggingKey{tag, item, user}
	if data.tagDups.At(key) > 0 {
		data.noteTagDup(key, -1)
		return
	}
	set = d.ownTagSet(tag, item)
	set.Remove(user)
	emptied := set.Len() == 0
	if emptied {
		byItem, _ = data.Taggers.Get(tag) // re-read: ownTagSet rebound it
		byItem = byItem.DeleteWith(d.edit, item)
		if byItem.Len() == 0 {
			data.Taggers = data.Taggers.DeleteWith(d.edit, tag)
			d.tagDelta[tag] = false
		} else {
			data.Taggers = data.Taggers.SetWith(d.edit, tag, byItem)
		}
	}
	if s, ok := data.ItemsOf.Get(user); ok && s.Has(item) && !d.stillTags(user, item) {
		d.ownItemsOf(user).Remove(item)
	}
	if s, ok := data.tagsOf.Get(user); ok && s.Has(tag) && !d.stillUsesTag(user, tag) {
		d.ownTagsOf(user).Remove(tag)
	}
	// A non-empty tagger set proves the item is still tagged; the
	// vocabulary-wide scan is only needed once this (tag, item) cell
	// drained.
	if emptied && !d.itemTagged(item) {
		d.itemDelta[item] = false
	}
	for v := range data.Network.At(user) {
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
	if data.Network.At(u).Has(v) {
		if countDup {
			data.noteConnDup(edgeOf(u, v), 1)
		}
		return
	}
	d.ownNet(u).Add(v)
	d.ownNet(v).Add(u)
	d.raisePair(u, v)
	if u != v {
		d.raisePair(v, u)
	}
}

// removeConnect retracts one assertion of the connection between u and v.
func (d *delta) removeConnect(u, v graph.NodeID) {
	data := d.ix.data
	net, ok := data.Network.Get(u)
	if !ok || !net.Has(v) {
		return
	}
	key := edgeOf(u, v)
	if data.connDups.At(key) > 0 {
		data.noteConnDup(key, -1)
		return
	}
	d.ownNet(u).Remove(v)
	if u != v {
		d.ownNet(v).Remove(u)
	}
	d.recomputePair(u, v)
	if u != v {
		d.recomputePair(v, u)
	}
}

// tagsUsedBy returns the tags a user's maintenance loops must visit: the
// user's own tag profile when tracked, the full vocabulary otherwise
// (hand-built Data without profiles stays correct, just slower). The
// vocabulary comes from the Taggers map, not the Tags slice — slice
// maintenance is deferred to the end of the batch, while the map always
// reflects every mutation applied so far.
func (d *delta) tagsUsedBy(u graph.NodeID) []string {
	if s, ok := d.ix.data.tagsOf.Get(u); ok {
		out := make([]string, 0, s.Len())
		for tag := range s {
			out = append(out, tag)
		}
		return out
	}
	return d.ix.data.Taggers.Keys()
}

// raisePair raises x's entries for everything other tagged: x just gained
// other in its network, so score_tag(i, x) grew exactly for other's
// taggings. The loop visits only other's own tags × items, not the whole
// vocabulary.
func (d *delta) raisePair(x, other graph.NodeID) {
	data := d.ix.data
	cid := d.ix.clustering.Of(x)
	if cid < 0 {
		return
	}
	items := data.ItemsOf.At(other)
	if items == nil {
		return
	}
	for _, tag := range d.tagsUsedBy(other) {
		byItem := data.Taggers.At(tag)
		for item := range items {
			if !byItem.At(item).Has(other) {
				continue
			}
			if s := data.ScoreTag(item, x, tag, d.ix.f); s > 0 {
				d.raise(listKey{cid, tag}, item, s)
			}
		}
	}
}

// recomputePair recomputes x's cluster entries for everything other
// tagged: x just lost other from its network, so those scores may shrink.
func (d *delta) recomputePair(x, other graph.NodeID) {
	data := d.ix.data
	cid := d.ix.clustering.Of(x)
	if cid < 0 {
		return
	}
	items := data.ItemsOf.At(other)
	if items == nil {
		return
	}
	for _, tag := range d.tagsUsedBy(other) {
		byItem := data.Taggers.At(tag)
		for item := range items {
			if byItem.At(item).Has(other) {
				d.recompute(listKey{cid, tag}, item)
			}
		}
	}
}

// addUser registers a user who arrived after the index was built: empty
// network and item profile, placed into the (copy-on-write extended)
// clustering.
func (d *delta) addUser(u graph.NodeID) {
	data := d.ix.data
	if data.Network.Has(u) {
		return
	}
	data.Network = data.Network.SetWith(d.edit, u, scoring.NewSet[graph.NodeID]())
	data.ItemsOf = data.ItemsOf.SetWith(d.edit, u, scoring.NewSet[graph.NodeID]())
	data.tagsOf = data.tagsOf.SetWith(d.edit, u, scoring.NewSet[string]())
	d.ownedNets[u] = true
	d.ownedItems[u] = true
	d.ownedTags[u] = true
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
	for _, v := range sortedMembers(net) {
		data.connDups = data.connDups.Delete(edgeOf(u, v))
		d.removeConnect(u, v)
	}
	if items := data.ItemsOf.At(u); items != nil {
		tags := append([]string(nil), d.tagsUsedBy(u)...)
		for _, item := range sortedMembers(items) {
			for _, tag := range tags {
				if data.Taggers.At(tag).At(item).Has(u) {
					data.tagDups = data.tagDups.Delete(taggingKey{tag, item, u})
					d.removeTagging(u, item, tag)
				}
			}
		}
	}
	data.Network = data.Network.DeleteWith(d.edit, u)
	data.ItemsOf = data.ItemsOf.DeleteWith(d.edit, u)
	data.tagsOf = data.tagsOf.DeleteWith(d.edit, u)
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
		set := data.Taggers.At(tag).At(item)
		if set == nil {
			continue
		}
		for _, u := range sortedMembers(set) {
			data.tagDups = data.tagDups.Delete(taggingKey{tag, item, u})
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
		c := scoring.IntersectionSize(net, taggers)
		if c <= 0 {
			continue
		}
		if s := d.ix.f(c); s > best {
			best = s
		}
	}
	l, n := setEntry(d.ownList(k), item, best)
	d.storeList(k, l, n)
}

func (d *delta) raise(k listKey, item graph.NodeID, score float64) {
	l, n := raiseEntry(d.ownList(k), item, score)
	d.storeList(k, l, n)
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
// version on first write. The enclosing shard and by-tag maps are
// persistent, so only the one slice is ever duplicated.
func (d *delta) ownList(k listKey) []Entry {
	l := d.ix.lists.At(k.tag).At(k.cluster)
	if d.ownedLists[k] {
		return l
	}
	d.ownedLists[k] = true
	if l == nil {
		return nil
	}
	// Room for the one insertion a tagging usually brings: append would
	// otherwise double the copy, and the slack lives as long as the list.
	c := make([]Entry, len(l), len(l)+1)
	copy(c, l)
	return c
}

// ownTagSet returns Taggers[tag][item] as an owned set, creating the tag
// and item cells on demand and rebinding the persistent maps around them.
func (d *delta) ownTagSet(tag string, item graph.NodeID) scoring.Set[graph.NodeID] {
	data := d.ix.data
	byItem, hadTag := data.Taggers.Get(tag)
	if !hadTag {
		byItem = NewItemTaggers()
	}
	owned := d.ownedTagSets[tag]
	if owned == nil {
		owned = make(map[graph.NodeID]bool)
		d.ownedTagSets[tag] = owned
	}
	set, hadSet := byItem.Get(item)
	if hadSet && owned[item] {
		return set
	}
	owned[item] = true
	if !hadSet {
		set = scoring.NewSet[graph.NodeID]()
	} else {
		set = set.Clone()
	}
	data.Taggers = data.Taggers.SetWith(d.edit, tag, byItem.SetWith(d.edit, item, set))
	return set
}

func (d *delta) ownNet(u graph.NodeID) scoring.Set[graph.NodeID] {
	data := d.ix.data
	if d.ownedNets[u] {
		return data.Network.At(u)
	}
	d.ownedNets[u] = true
	s := data.Network.At(u)
	if s == nil {
		s = scoring.NewSet[graph.NodeID]()
	} else {
		s = s.Clone()
	}
	data.Network = data.Network.SetWith(d.edit, u, s)
	return s
}

func (d *delta) ownItemsOf(u graph.NodeID) scoring.Set[graph.NodeID] {
	data := d.ix.data
	if d.ownedItems[u] {
		return data.ItemsOf.At(u)
	}
	d.ownedItems[u] = true
	s := data.ItemsOf.At(u)
	if s == nil {
		s = scoring.NewSet[graph.NodeID]()
	} else {
		s = s.Clone()
	}
	data.ItemsOf = data.ItemsOf.SetWith(d.edit, u, s)
	return s
}

func (d *delta) ownTagsOf(u graph.NodeID) scoring.Set[string] {
	data := d.ix.data
	if d.ownedTags[u] {
		return data.tagsOf.At(u)
	}
	d.ownedTags[u] = true
	s := data.tagsOf.At(u)
	if s == nil {
		s = scoring.NewSet[string]()
	} else {
		s = s.Clone()
	}
	data.tagsOf = data.tagsOf.SetWith(d.edit, u, s)
	return s
}

// stillTags reports whether user still tags item under any tag.
func (d *delta) stillTags(user, item graph.NodeID) bool {
	for _, tag := range d.tagsUsedBy(user) {
		if d.ix.data.Taggers.At(tag).At(item).Has(user) {
			return true
		}
	}
	return false
}

// stillUsesTag reports whether user still tags anything with tag.
func (d *delta) stillUsesTag(user graph.NodeID, tag string) bool {
	byItem, ok := d.ix.data.Taggers.Get(tag)
	if !ok {
		return false
	}
	for item := range d.ix.data.ItemsOf.At(user) {
		if byItem.At(item).Has(user) {
			return true
		}
	}
	return false
}

// itemTagged reports whether any tagger remains for item under any tag.
func (d *delta) itemTagged(item graph.NodeID) bool {
	tagged := false
	d.ix.data.Taggers.Range(func(_ string, byItem ItemTaggers) bool {
		if s := byItem.At(item); s != nil && s.Len() > 0 {
			tagged = true
			return false
		}
		return true
	})
	return tagged
}

func sortedMembers(s scoring.Set[graph.NodeID]) []graph.NodeID {
	out := make([]graph.NodeID, 0, s.Len())
	for m := range s {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
