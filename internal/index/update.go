package index

import (
	"fmt"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
)

// AddTagging folds a new tagging action into the substrate: user tagged
// item with tag. It returns the users whose score for (item, tag) may have
// changed — precisely the tagger's network — so callers can refresh
// derived structures incrementally.
//
// Every touched vector and map is replaced, never edited, so versions
// sharing them with the receiver (ApplyDelta snapshots) are never modified
// underneath their readers.
func (d *Data) AddTagging(user, item graph.NodeID, tag string) []graph.NodeID {
	byItem, ok := d.Taggers.Get(tag)
	if !ok {
		byItem = NewItemTaggers()
		d.Tags = persist.InsertSorted(d.Tags, tag)
	}
	taggers, ok := byItem.Get(item)
	if !ok {
		d.Items = persist.InsertSorted(d.Items, item)
	}
	if has(taggers, user) {
		d.noteTagDup(taggingKey{tag, item, user}, 1)
		return nil // duplicate action: scores unchanged
	}
	d.Taggers = d.Taggers.Set(tag, byItem.Set(item, persist.InsertSorted(taggers, user)))
	if d.ItemsOf.Has(user) {
		d.ItemsOf = withMember(d.ItemsOf, nil, user, item)
	}
	if d.tagsOf.Has(user) {
		d.tagsOf = withMember(d.tagsOf, nil, user, tag)
	}
	net, ok := d.Network.Get(user)
	if !ok {
		return nil
	}
	return append(make([]graph.NodeID, 0, len(net)), net...)
}

// ApplyTagging incrementally maintains the index after a new tagging
// action has been folded into the substrate via Data.AddTagging. Because
// scores under a monotone f only grow when taggers are added, the stored
// per-cluster maximum can be raised in place without a rebuild: for every
// affected user v (the tagger's network), the entry for (cluster(v), tag,
// item) is set to max(current, score_tag(item, v)).
//
// The clustering itself is treated as fixed — re-clustering cadence is the
// Data Manager's policy decision, mirroring Section 6.2's separation of
// index maintenance from cluster maintenance.
//
// The update turns copy-on-write below the receiver once the index has
// been through an ApplyDelta snapshot: the tag's shard map and every
// touched posting list are then replaced with copies, never mutated, so
// sibling versions keep their lists intact. (The receiver itself changes
// in place — this is the single-writer study API; the snapshot-per-batch
// API is ApplyDelta.)
func (ix *Index) ApplyTagging(user, item graph.NodeID, tag string, affected []graph.NodeID) error {
	if !has(ix.data.Taggers.At(tag).At(item), user) {
		return fmt.Errorf("index: ApplyTagging before Data.AddTagging for (%d,%d,%s)", user, item, tag)
	}
	shard, ok := ix.lists.Get(tag)
	if !ok {
		shard = newClusterLists()
	}
	touched := false
	owned := make(map[int]bool)
	for _, v := range affected {
		cid := ix.clustering.Of(v)
		if cid < 0 {
			continue
		}
		score := ix.data.ScoreTag(item, v, tag, ix.f)
		if score <= 0 {
			continue
		}
		l := shard.At(cid)
		if ix.shared && !owned[cid] {
			l = append([]Entry(nil), l...)
		}
		owned[cid] = true
		l, added := raiseEntry(l, item, score)
		shard = shard.Set(cid, l)
		touched = true
		ix.entries += added
	}
	if touched {
		ix.lists = ix.lists.Set(tag, shard)
	}
	return nil
}

// raiseEntry lifts item's entry to at least score (inserting when absent),
// preserving descending-score, ascending-id order. It returns the list and
// the entry-count delta (1 on insert, else 0). The slice is mutated in
// place; callers on the copy-on-write path must own it first.
func raiseEntry(l []Entry, item graph.NodeID, score float64) ([]Entry, int) {
	for i := range l {
		if l[i].Item != item {
			continue
		}
		if l[i].Score >= score {
			return l, 0
		}
		l[i].Score = score
		// Bubble the raised entry toward the front to restore order.
		for i > 0 && less(l[i-1], l[i]) {
			l[i-1], l[i] = l[i], l[i-1]
			i--
		}
		return l, 0
	}
	l = append(l, Entry{item, score})
	i := len(l) - 1
	for i > 0 && less(l[i-1], l[i]) {
		l[i-1], l[i] = l[i], l[i-1]
		i--
	}
	return l, 1
}

// setEntry pins item's entry to exactly score — removing it when score is
// not positive, matching Build's "entries exist only for positive upper
// bounds" invariant — and restores order in either direction (scores can
// fall after a retraction). It returns the list and the entry-count delta.
func setEntry(l []Entry, item graph.NodeID, score float64) ([]Entry, int) {
	for i := range l {
		if l[i].Item != item {
			continue
		}
		if score <= 0 {
			return append(l[:i], l[i+1:]...), -1
		}
		if l[i].Score == score {
			return l, 0
		}
		l[i].Score = score
		for i > 0 && less(l[i-1], l[i]) {
			l[i-1], l[i] = l[i], l[i-1]
			i--
		}
		for i+1 < len(l) && less(l[i], l[i+1]) {
			l[i], l[i+1] = l[i+1], l[i]
			i++
		}
		return l, 0
	}
	if score <= 0 {
		return l, 0
	}
	return raiseEntry(l, item, score)
}

// less reports whether a should sort after b (descending score, ascending
// item id).
func less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}
