// Bulk construction: a Map built from a known key set in one ordering
// pass and one layout pass, every node sized exactly once.
//
// A chain of writes — under an Edit or not — grows each trie node one
// entry at a time, so a cold build of n entries pays an append (and, past
// each capacity, a copy) per entry per node it lands in. Build knows every
// key up front. It orders the entries by their hash path (the trie's own
// order), then walks that order once, allocating each node with its keys,
// values and child pointers at their final length, cap == len, so no
// later write can grow one in place: the writer copies a slice before it
// changes one, as it does in any node its Edit does not own.
//
// Nodes are allocated one by one, not carved from shared slabs: a slab
// lives as long as any node in it, so once later writes had replaced most
// of a built trie, the slab would keep every replaced node alive.
//
// The shape is the canonical one: a slot holds an inline entry when one
// key of the set reaches it, and a child node when two or more do, down
// to collision buckets, whose entries keep input order. That is exactly
// the trie sequential Sets of the same entries produce, so Range order,
// checkpoint bytes and every later write are the same whichever way a
// Map was built.
package persist

import (
	"cmp"
	"math/bits"
	"slices"
)

// pathEntry is one entry of a Build, keyed by its hash path.
type pathEntry struct {
	path uint64
	at   int // index into Build's keys and vals
}

// pathOf reorders hash h's chunks so that the chunk the root reads is the
// most significant, the next level's chunk the next, and so on: sorting
// entries by path puts them in Range order.
func pathOf(h uint64) uint64 {
	var p uint64
	for shift := uint(0); shift < maxShift; shift += branchBits {
		p = p<<branchBits | (h>>shift)&branchMask
	}
	return p<<(64-maxShift) | h>>maxShift
}

// chunkOf returns the chunk of path p that the trie level at shift reads:
// (h >> shift) & branchMask of the hash p was made from.
func chunkOf(p uint64, shift uint) uint64 {
	if shift < maxShift {
		return p >> (64 - branchBits - shift) & branchMask
	}
	return p & (1<<(64-maxShift) - 1)
}

// Build returns m, which must be empty, holding vals[i] under keys[i] for
// every i. The keys must be distinct; Build panics on a repeat, on a
// non-empty receiver and on slices of unequal length. It reads its
// arguments and keeps neither.
//
// The result equals, node for node, the trie that writing the entries in
// order would build, with every node slice exact-size, at about three
// allocations per node instead of several per entry. Build and the writer
// (SetWith) share no code, so each is the other's reference: under
// DisableTransients Build is that chain of Sets, and the write tests hold
// the writer's tries to Build's.
func (m Map[K, V]) Build(keys []K, vals []V) Map[K, V] {
	if m.size != 0 {
		panic("persist: Build on a non-empty Map")
	}
	if len(keys) != len(vals) {
		panic("persist: Build with unequal key and value counts")
	}
	if DisableTransients {
		for i, k := range keys {
			m = m.Set(k, vals[i])
		}
		if m.size != len(keys) {
			panic("persist: Build with a repeated key")
		}
		return m
	}
	if len(keys) == 0 {
		return m
	}
	var small [sortSmall]pathEntry
	es := small[:0]
	if len(keys) > len(small) {
		es = make([]pathEntry, 0, len(keys))
	}
	for i, k := range keys {
		es = append(es, pathEntry{pathOf(m.hash(k)), i})
	}
	sortPaths(es, 0)
	return Map[K, V]{root: buildNode(keys, vals, es, 0), size: len(keys), hash: m.hash}
}

// sortSmall is the size at or below which sortPaths insertion-sorts.
const sortSmall = 32

// sortPaths sorts es by path, and entries of one path by input order,
// given that every entry of es agrees on the chunks above shift. Large
// groups are partitioned in place on the chunk at shift (an American-flag
// sort, which needs no second buffer but does not keep input order) and
// each bucket sorted recursively; small ones are insertion-sorted whole.
func sortPaths(es []pathEntry, shift uint) {
	if len(es) <= sortSmall {
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].before(es[j-1]); j-- {
				es[j-1], es[j] = es[j], es[j-1]
			}
		}
		return
	}
	if shift > maxShift {
		// One full hash: a collision bucket, whose entries keep input order.
		slices.SortFunc(es, func(a, b pathEntry) int { return cmp.Compare(a.at, b.at) })
		return
	}
	var count [1 << branchBits]int
	for _, e := range es {
		count[chunkOf(e.path, shift)]++
	}
	var start, next [1 << branchBits]int
	for c := 1; c < len(start); c++ {
		start[c] = start[c-1] + count[c-1]
	}
	next = start
	// Take each bucket's first unplaced entry and swap it into the bucket
	// its chunk names, until the bucket is full of its own.
	for c := range next {
		for end := start[c] + count[c]; next[c] < end; {
			d := chunkOf(es[next[c]].path, shift)
			if d != uint64(c) {
				es[next[c]], es[next[d]] = es[next[d]], es[next[c]]
			}
			next[d]++
		}
	}
	for c := range count {
		if count[c] > 1 {
			sortPaths(es[start[c]:start[c]+count[c]], shift+branchBits)
		}
	}
}

// before orders entries by path, then by input order.
func (e pathEntry) before(f pathEntry) bool {
	return e.path < f.path || e.path == f.path && e.at < f.at
}

// runEnd returns the end of the run of es, sorted by path, that shares
// es[i]'s chunk at shift.
func runEnd(es []pathEntry, i int, shift uint) int {
	c := chunkOf(es[i].path, shift)
	j := i + 1
	for j < len(es) && chunkOf(es[j].path, shift) == c {
		j++
	}
	return j
}

// buildNode returns the node holding es, sorted by path, at shift, with
// its subtrees: a collision bucket past the last level, else an inline
// entry for each slot one entry reaches and a child for each slot two or
// more do.
func buildNode[K comparable, V any](keys []K, vals []V, es []pathEntry, shift uint) *node[K, V] {
	n := new(node[K, V])
	if shift > maxShift {
		n.coll = true
		n.keys, n.vals = make([]K, len(es)), make([]V, len(es))
		for i, e := range es {
			k := keys[e.at]
			for _, prev := range n.keys[:i] {
				if prev == k {
					panic("persist: Build with a repeated key")
				}
			}
			n.keys[i], n.vals[i] = k, vals[e.at]
		}
		return n
	}
	for i := 0; i < len(es); {
		j := runEnd(es, i, shift)
		bit := uint64(1) << chunkOf(es[i].path, shift)
		if j-i == 1 {
			n.datamap |= bit
		} else {
			n.nodemap |= bit
		}
		i = j
	}
	if d := bits.OnesCount64(n.datamap); d > 0 {
		n.keys, n.vals = make([]K, d), make([]V, d)
	}
	if s := bits.OnesCount64(n.nodemap); s > 0 {
		n.subs = make([]*node[K, V], s)
	}
	di, si := 0, 0
	for i := 0; i < len(es); {
		j := runEnd(es, i, shift)
		if j-i == 1 {
			n.keys[di], n.vals[di] = keys[es[i].at], vals[es[i].at]
			di++
		} else {
			n.subs[si] = buildNode(keys, vals, es[i:j], shift+branchBits)
			si++
		}
		i = j
	}
	return n
}
