package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/persist"
	"socialscope/internal/scoring"
)

// EntryBytes is the per-entry storage estimate the paper uses in its
// back-of-envelope index sizing ("assuming 10 bytes per index entry").
const EntryBytes = 10

// Entry is one posting: an item with its stored score. For singleton
// clusters the score is exact; otherwise it is the Equation 1 upper bound
// max_{u∈C} score_k(i,u).
type Entry struct {
	Item  graph.NodeID
	Score float64
}

type listKey struct {
	cluster int
	tag     string
}

// clusterLists is one tag's shard: cluster id → posting list, persistent.
type clusterLists = persist.Map[int, []Entry]

func newClusterLists() clusterLists { return persist.NewIntMap[int, []Entry]() }

// Index is a network-aware inverted index: one posting list per
// (cluster, tag), sorted by descending stored score. PerUser clustering
// reproduces the paper's IL^u_k exact index; Global clustering reproduces
// classic IR lists; intermediate clusterings realize the space/time
// trade-off of [5].
//
// Lists are sharded by tag — tag → cluster → postings — mirroring the
// build's work split. Both levels are persistent maps, so an ApplyDelta
// snapshot shares the whole index at O(1) cost and a write duplicates
// only the touched posting slice plus its trie paths — never a whole
// shard, whose size grows with the corpus under fine clusterings.
type Index struct {
	data       *Data
	clustering *cluster.Clustering
	f          scoring.UserSetFn
	lists      persist.Map[string, clusterLists]
	entries    int
	// version counts the ApplyDelta snapshots this index descends from:
	// Build produces version 0 and every ApplyDelta batch returns a new
	// index at version+1. Query processors stamp it into their Stats so a
	// live system can tell which snapshot answered a query.
	version uint64
}

// Build materializes the posting lists. For every tag and item it computes
// per-user exact scores by walking the taggers' reverse networks (touching
// only users who can score > 0), folds them into per-cluster maxima, and
// sorts each list by descending score. Tags are independent, so the build
// is sharded by tag across a worker pool sized to the machine; the result
// is deterministic regardless of worker count.
func Build(data *Data, clustering *cluster.Clustering, f scoring.UserSetFn) (*Index, error) {
	return BuildWithWorkers(data, clustering, f, 0)
}

// BuildWithWorkers is Build with an explicit worker-pool size. workers <= 0
// means GOMAXPROCS. workers == 1 is the sequential reference build.
func BuildWithWorkers(data *Data, clustering *cluster.Clustering, f scoring.UserSetFn,
	workers int) (*Index, error) {
	if data == nil || clustering == nil {
		return nil, fmt.Errorf("index: nil data or clustering")
	}
	if f == nil {
		f = scoring.CountF
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(data.Tags) && len(data.Tags) > 0 {
		workers = len(data.Tags)
	}
	ix := &Index{data: data, clustering: clustering, f: f,
		lists: persist.NewStringMap[clusterLists]()}

	// Shard by tag: each worker builds the complete, sorted per-cluster
	// lists of its tags. Shards write into disjoint slots of a per-tag
	// result slice, so the merge below needs no locking and the final map
	// contents do not depend on scheduling.
	shards := make([]map[int][]Entry, len(data.Tags))
	var wg sync.WaitGroup
	tagCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range tagCh {
				shards[ti] = buildTagLists(data, clustering, f, data.Tags[ti])
			}
		}()
	}
	for ti := range data.Tags {
		tagCh <- ti
	}
	close(tagCh)
	wg.Wait()

	// Seal the shards into the two persistent levels through transients:
	// the by-tag map and each tag's cluster map are assembled with
	// in-place writes (one node claim per trie region instead of one path
	// copy per Set) and sealed — once per shard, once for the index —
	// before anything is published. Trie shapes are canonical, so the
	// result is byte-identical to a persistent-only assembly.
	lists := ix.lists.Transient()
	for ti, tag := range data.Tags {
		if len(shards[ti]) == 0 {
			continue
		}
		sh := newClusterLists().Transient()
		for cid, l := range shards[ti] {
			sh.Set(cid, l)
			ix.entries += len(l)
		}
		lists.Set(tag, sh.Persistent())
	}
	ix.lists = lists.Persistent()
	return ix, nil
}

// buildTagLists computes the sorted posting lists of one tag, keyed by
// cluster id.
func buildTagLists(data *Data, clustering *cluster.Clustering, f scoring.UserSetFn,
	tag string) map[int][]Entry {
	byItem := data.Taggers.At(tag)
	items := byItem.Keys()
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	lists := make(map[int][]Entry)
	for _, item := range items {
		taggers := byItem.At(item)
		// Count taggers within each potential querier's network (the
		// reverse network: who has the tagger in their network; symmetric,
		// so identical to Network, but keep the access pattern explicit).
		counts := make(map[graph.NodeID]int)
		for _, tg := range taggers {
			for _, u := range data.Network.At(tg) {
				counts[u]++
			}
		}
		// Fold into per-cluster maxima of f(count).
		maxima := make(map[int]float64)
		for u, c := range counts {
			cid := clustering.Of(u)
			if cid < 0 {
				continue
			}
			if s := f(c); s > maxima[cid] {
				maxima[cid] = s
			}
		}
		for cid, ub := range maxima {
			if ub > 0 {
				lists[cid] = append(lists[cid], Entry{item, ub})
			}
		}
	}
	for cid := range lists {
		l := lists[cid]
		sort.Slice(l, func(i, j int) bool {
			if l[i].Score != l[j].Score {
				return l[i].Score > l[j].Score
			}
			return l[i].Item < l[j].Item
		})
	}
	return lists
}

// Strategy returns the clustering strategy the index was built with.
func (ix *Index) Strategy() cluster.Strategy { return ix.clustering.Strategy }

// Data returns the tagging substrate the index was built over; query
// processors use it for exact rescoring (random access).
func (ix *Index) Data() *Data { return ix.data }

// UserFn returns the monotone per-keyword scoring function f the stored
// upper bounds were computed with.
func (ix *Index) UserFn() scoring.UserSetFn { return ix.f }

// Clustering returns the user partition backing the lists.
func (ix *Index) Clustering() *cluster.Clustering { return ix.clustering }

// EntryCount returns the number of postings stored.
func (ix *Index) EntryCount() int { return ix.entries }

// SizeBytes estimates storage at the paper's 10 bytes/entry.
func (ix *Index) SizeBytes() int64 { return int64(ix.entries) * EntryBytes }

// NumLists returns the number of non-empty posting lists.
func (ix *Index) NumLists() int {
	n := 0
	ix.lists.Range(func(_ string, byCluster clusterLists) bool {
		n += byCluster.Len()
		return true
	})
	return n
}

// Version returns the snapshot version: 0 for a fresh Build, incremented
// by every ApplyDelta batch.
func (ix *Index) Version() uint64 { return ix.version }

// AtVersion sets the snapshot version and returns the receiver. It is for
// build-time seeding only — a live engine rebuilding its index mid-stream
// aligns the fresh index with its own state version so the
// SnapshotVersion reported by queries never regresses. Never call it on
// an index that has been published to readers.
func (ix *Index) AtVersion(v uint64) *Index {
	ix.version = v
	return ix
}

// ForEachList visits every posting list in deterministic order (ascending
// tag, then cluster id). The callback must not retain or mutate the slice.
func (ix *Index) ForEachList(fn func(cluster int, tag string, l []Entry)) {
	tags := ix.lists.Keys()
	sort.Strings(tags)
	for _, tag := range tags {
		byCluster := ix.lists.At(tag)
		cids := byCluster.Keys()
		sort.Ints(cids)
		for _, cid := range cids {
			fn(cid, tag, byCluster.At(cid))
		}
	}
}

// List exposes the posting list for a (user, tag) pair — the list of the
// user's cluster. Nil when the user is unknown or the tag unindexed. The
// slice is the live posting list of the published index version.
//
//ss:immutable — callers must not mutate or reorder; copy first.
func (ix *Index) List(user graph.NodeID, tag string) []Entry {
	cid := ix.clustering.Of(user)
	if cid < 0 {
		return nil
	}
	return ix.lists.At(tag).At(cid)
}

// SizeReport summarizes an index build for the Section 6.2 tables.
type SizeReport struct {
	Strategy cluster.Strategy
	Theta    float64
	Clusters int
	Lists    int
	Entries  int
	Bytes    int64
}

// Report returns the index's size summary.
func (ix *Index) Report() SizeReport {
	return SizeReport{
		Strategy: ix.clustering.Strategy,
		Theta:    ix.clustering.Theta,
		Clusters: ix.clustering.NumClusters(),
		Lists:    ix.NumLists(),
		Entries:  ix.entries,
		Bytes:    ix.SizeBytes(),
	}
}
