package index

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

// Build materializes the posting lists. For every tag and item it counts,
// for each user, the item's taggers in that user's network (walking the
// taggers' reverse networks, so only users who can score > 0 are touched),
// folds f(count) into per-cluster maxima, and sorts each list by
// descending score, then ascending item id. The counting runs over dense
// tables set up once per build — users as positions, each position's
// network and cluster id — and per-worker scratch counters reused across
// items and tags, so a build allocates little beyond the lists it stores,
// each at exact size. Tags are independent, so the build is sharded by tag
// across a worker pool sized to the machine; the result is deterministic
// regardless of worker count.
func Build(data *Data, clustering *cluster.Clustering, f scoring.UserSetFn) (*Index, error) {
	return BuildWithWorkers(data, clustering, f, 0)
}

// BuildWithWorkers is Build with an explicit worker-pool size. workers <= 0
// means GOMAXPROCS. workers == 1 is the sequential reference build. Every
// worker count yields the same lists. Each worker holds scratch of
// O(users + clusters) for the length of the build.
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
	tab := newBuildTable(data, clustering)

	// Shard by tag: each worker builds and seals the complete, sorted
	// per-cluster lists of its tags. Shards write into disjoint slots of a
	// per-tag result slice, so the merge below needs no locking and the
	// final map contents do not depend on scheduling.
	shards := make([]tagShard, len(data.Tags))
	var wg sync.WaitGroup
	tagCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := tab.newScratch()
			for ti := range tagCh {
				shards[ti] = sc.tagLists(tab, f, data.Taggers.At(data.Tags[ti]))
			}
		}()
	}
	for ti := range data.Tags {
		tagCh <- ti
	}
	close(tagCh)
	wg.Wait()

	// Lay the by-tag level out in one Build. Trie shapes are canonical, so
	// the result is byte-identical to a persistent-only assembly.
	tags := make([]string, 0, len(data.Tags))
	lists := make([]clusterLists, 0, len(data.Tags))
	for ti, tag := range data.Tags {
		if shards[ti].entries == 0 {
			continue
		}
		tags = append(tags, tag)
		lists = append(lists, shards[ti].lists)
		ix.entries += shards[ti].entries
	}
	ix.lists = ix.lists.Build(tags, lists)
	return ix, nil
}

// buildTable is what every build worker reads: data.Users as dense
// positions, the network of each position as positions, and each
// position's cluster id. Network members are users (Data's invariant); a
// tagger who is not a user has no position and counts for no one.
type buildTable struct {
	users []graph.NodeID // position p is users[p]
	// net[netAt[p]:netAt[p+1]] are the positions in users[p]'s network.
	netAt []int32
	net   []int32
	// cluster[p] is users[p]'s cluster id, or -1 outside the clustering.
	cluster  []int32
	clusters int // one past the largest cluster id
}

func newBuildTable(data *Data, clustering *cluster.Clustering) *buildTable {
	t := &buildTable{users: data.Users, netAt: make([]int32, 1, len(data.Users)+1),
		cluster: make([]int32, len(data.Users))}
	for p, u := range data.Users {
		for _, v := range data.Network.At(u) {
			if q, ok := slices.BinarySearch(t.users, v); ok {
				t.net = append(t.net, int32(q))
			}
		}
		t.netAt = append(t.netAt, int32(len(t.net)))
		c := clustering.Of(u)
		t.cluster[p] = int32(c)
		t.clusters = max(t.clusters, c+1)
	}
	return t
}

// buildScratch is one worker's scratch, reused across items and tags: a
// counter per position and a maximum and a growing list per cluster, each
// with the list of slots it touched, so resetting costs what was written.
type buildScratch struct {
	count   []int32 // by position
	counted []int32 // positions with count > 0
	max     []float64
	raised  []int32 // clusters with max > 0
	lists   [][]Entry
	listed  []int32 // clusters with a non-empty list
	// clusters and stored are one tag's cluster ids and stored lists,
	// handed to Build.
	clusters []int
	stored   [][]Entry
}

// tagShard is one tag's sealed cluster → list map and its entry count.
type tagShard struct {
	lists   clusterLists
	entries int
}

func (t *buildTable) newScratch() *buildScratch {
	return &buildScratch{count: make([]int32, len(t.users)),
		max: make([]float64, t.clusters), lists: make([][]Entry, t.clusters)}
}

// tagLists computes the sorted posting lists of one tag, keyed by cluster
// id. Items may come in any order: each list is sorted by a total order.
func (sc *buildScratch) tagLists(t *buildTable, f scoring.UserSetFn, byItem ItemTaggers) tagShard {
	byItem.Range(func(item graph.NodeID, taggers []graph.NodeID) bool {
		// Count taggers within each potential querier's network: walk each
		// tagger's reverse network (who has the tagger in their network;
		// symmetric, so the tagger's own network).
		for _, tg := range taggers {
			p, ok := slices.BinarySearch(t.users, tg)
			if !ok {
				continue
			}
			for _, q := range t.net[t.netAt[p]:t.netAt[p+1]] {
				if sc.count[q] == 0 {
					sc.counted = append(sc.counted, q)
				}
				sc.count[q]++
			}
		}
		// Fold into per-cluster maxima of f(count). A cluster is raised
		// only past its zero start, so a zero bound never makes an entry.
		for _, q := range sc.counted {
			n := sc.count[q]
			sc.count[q] = 0
			c := t.cluster[q]
			if c < 0 {
				continue
			}
			if s := f(int(n)); s > sc.max[c] {
				if sc.max[c] == 0 {
					sc.raised = append(sc.raised, c)
				}
				sc.max[c] = s
			}
		}
		sc.counted = sc.counted[:0]
		for _, c := range sc.raised {
			if len(sc.lists[c]) == 0 {
				sc.listed = append(sc.listed, c)
			}
			sc.lists[c] = append(sc.lists[c], Entry{item, sc.max[c]})
			sc.max[c] = 0
		}
		sc.raised = sc.raised[:0]
		return true
	})
	var out tagShard
	if len(sc.listed) == 0 {
		return out
	}
	sc.clusters, sc.stored = sc.clusters[:0], sc.stored[:0]
	for _, c := range sc.listed {
		l := sc.lists[c]
		slices.SortFunc(l, order)
		sc.clusters = append(sc.clusters, int(c))
		sc.stored = append(sc.stored, persist.CloneExact(l)) // a list lives as long as its index
		out.entries += len(l)
		sc.lists[c] = l[:0]
	}
	sc.listed = sc.listed[:0]
	out.lists = newClusterLists().Build(sc.clusters, sc.stored)
	return out
}

// order is the posting-list order as a comparison for slices.SortFunc:
// descending score, then ascending item id, the order less tests.
func order(a, b Entry) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.Item, b.Item)
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
