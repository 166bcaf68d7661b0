// The one trie writer: SetWith and DeleteWith, under an ownership token
// (an Edit) or none. Set and Delete are the nil-token case.
//
// A write copies the nodes on its key's path that its token does not own
// and stamps each copy with the token; it mutates the nodes the token does
// own in place. A nil token owns nothing, so a write under it copies one
// root-to-leaf path and shares the rest: the persistent write, O(log n)
// node copies. A batch of N writes under one token pays one copy per
// *touched node*, not one per *write* — the Clojure-style transient —
// since the paths a batch has copied are its own for the rest of it. Nodes
// reachable from a Map published before the token existed are never
// stamped with it, so no write under it can reach them.
//
// Closing a window is O(1): its owner stops using the token, and the
// current header becomes an ordinary immutable Map. Stamped edit pointers
// remain in the nodes but are inert — ownership tests compare against the
// token a write carries, and every NewEdit allocation is distinct — so a
// Map from a closed window is safe to share across goroutines like any
// other.
//
// Contract: a window is single-goroutine, and its Maps are published
// (shared with readers) only after it closes. Structures embedding
// persistent maps (graph.Graph, the index's live deltas) open windows
// through SetWith/DeleteWith, so their read paths keep working on
// ordinary Map headers mid-batch. A cold build from a known key set uses
// Build (build.go) instead.
package persist

import "math/bits"

// Edit is a transient ownership token. Trie nodes stamped with an Edit may
// be mutated in place by writes carrying the same token; all other nodes
// are copied first. Obtain one with NewEdit, one per window.
type Edit struct {
	_ int8 // non-zero size: every NewEdit allocation is a distinct identity
}

// NewEdit returns a fresh ownership token for one bulk-mutation window.
func NewEdit() *Edit { return &Edit{} }

// DisableTransients, when true, makes SetWith/DeleteWith (and every bulk
// path built on them) write under a nil Edit whatever token they carry,
// copying every node they touch, and Build run a chain of Sets. It is a
// test seam: tests run the same bulk code both ways and require identical
// results (see TestTransientBuildMatchesPersistent in internal/index). Not
// for concurrent toggling; a test that sets it must restore it and must
// not run in parallel.
var DisableTransients bool

// owned reports whether the node may be mutated in place under e.
func (n *node[K, V]) owned(e *Edit) bool { return e != nil && n.edit == e }

// claim returns a node the edit may freely write: n itself when already
// owned, otherwise a copy of its header stamped with e. The copy shares
// n's keys, vals and subs; each write then copies only the slice it
// changes, once (own), since in-place mutation of a shared backing array
// would corrupt published versions.
func claim[K comparable, V any](e *Edit, n *node[K, V]) *node[K, V] {
	if n.owned(e) {
		return n
	}
	return &node[K, V]{
		datamap: n.datamap,
		nodemap: n.nodemap,
		keys:    n.keys,
		vals:    n.vals,
		subs:    n.subs,
		coll:    n.coll,
		edit:    e,
	}
}

// The bits of node.own: which of a claimed node's slices it has copied.
const (
	ownKeys uint8 = 1 << iota
	ownVals
	ownSubs
	ownAll = ownKeys | ownVals | ownSubs
)

// setVal, setSub, insertEntry, removeEntry, insertSub and removeSub write
// a node the edit owns, copying a slice it still shares with a published
// node on its first write.
func (n *node[K, V]) setVal(i int, v V) {
	if n.own&ownVals == 0 {
		n.vals, n.own = setAt(n.vals, i, v), n.own|ownVals
		return
	}
	n.vals[i] = v
}

func (n *node[K, V]) setSub(j int, sub *node[K, V]) {
	if n.own&ownSubs == 0 {
		n.subs, n.own = setAt(n.subs, j, sub), n.own|ownSubs
		return
	}
	n.subs[j] = sub
}

func (n *node[K, V]) insertEntry(i int, k K, v V) {
	n.keys = insertOwned(n.keys, n.own&ownKeys != 0, i, k)
	n.vals = insertOwned(n.vals, n.own&ownVals != 0, i, v)
	n.own |= ownKeys | ownVals
}

func (n *node[K, V]) removeEntry(i int) {
	n.keys = removeOwned(n.keys, n.own&ownKeys != 0, i)
	n.vals = removeOwned(n.vals, n.own&ownVals != 0, i)
	n.own |= ownKeys | ownVals
}

func (n *node[K, V]) insertSub(j int, sub *node[K, V]) {
	n.subs, n.own = insertOwned(n.subs, n.own&ownSubs != 0, j, sub), n.own|ownSubs
}

func (n *node[K, V]) removeSub(j int) {
	n.subs, n.own = removeOwned(n.subs, n.own&ownSubs != 0, j), n.own|ownSubs
}

// SetWith returns a map with k bound to v, writing under e: nodes owned
// by e are mutated in place, everything else is copied first (and the
// copy stamped with e, so the next write through it is free). Under a nil
// e — Set, or any e under DisableTransients — every node on k's path is
// copied and the receiver is unchanged. Structures that hold Maps as
// fields open a bulk window this way and keep reading the Map headers
// mid-batch; the single-goroutine contract applies to the whole window,
// and the final headers must only be published (shared with readers)
// after the window closes.
func (m Map[K, V]) SetWith(e *Edit, k K, v V) Map[K, V] {
	if DisableTransients {
		e = nil
	}
	h := m.hash(k)
	if m.root == nil {
		return Map[K, V]{
			root: &node[K, V]{
				datamap: 1 << (h & branchMask),
				keys:    []K{k},
				vals:    []V{v},
				edit:    e,
				own:     ownAll,
			},
			size: 1,
			hash: m.hash,
		}
	}
	root, added := m.setIn(e, m.root, 0, h, k, v)
	size := m.size
	if added {
		size++
	}
	return Map[K, V]{root: root, size: size, hash: m.hash}
}

// setIn writes k into the subtree n at shift, claiming each node before
// it mutates it, and reports whether k is new.
func (m Map[K, V]) setIn(e *Edit, n *node[K, V], shift uint, h uint64, k K, v V) (*node[K, V], bool) {
	if n.coll {
		for i := range n.keys {
			if n.keys[i] == k {
				n = claim(e, n)
				n.setVal(i, v)
				return n, false
			}
		}
		n = claim(e, n)
		n.insertEntry(len(n.keys), k, v)
		return n, true
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	switch {
	case n.datamap&bit != 0:
		i := bits.OnesCount64(n.datamap & (bit - 1))
		if n.keys[i] == k {
			n = claim(e, n)
			n.setVal(i, v)
			return n, false
		}
		// Slot conflict: push the resident entry and the new one down into
		// a fresh subtree (merge stamps it with e, so follow-up writes into
		// the same region stay in place).
		sub := m.merge(e, shift+branchBits, m.hash(n.keys[i]), n.keys[i], n.vals[i], h, k, v)
		j := bits.OnesCount64(n.nodemap & (bit - 1))
		n = claim(e, n)
		n.datamap &^= bit
		n.nodemap |= bit
		n.removeEntry(i)
		n.insertSub(j, sub)
		return n, true
	case n.nodemap&bit != 0:
		j := bits.OnesCount64(n.nodemap & (bit - 1))
		sub, added := m.setIn(e, n.subs[j], shift+branchBits, h, k, v)
		if sub == n.subs[j] {
			return n, added // the subtree was written in place
		}
		n = claim(e, n)
		n.setSub(j, sub)
		return n, added
	default:
		i := bits.OnesCount64(n.datamap & (bit - 1))
		n = claim(e, n)
		n.datamap |= bit
		n.insertEntry(i, k, v)
		return n, true
	}
}

// DeleteWith returns a map without k, writing under e as SetWith does;
// deleting an absent key returns the receiver as-is.
func (m Map[K, V]) DeleteWith(e *Edit, k K) Map[K, V] {
	if DisableTransients {
		e = nil
	}
	if m.root == nil {
		return m
	}
	root, removed := m.delIn(e, m.root, 0, m.hash(k), k)
	if !removed {
		return m
	}
	return Map[K, V]{root: root, size: m.size - 1, hash: m.hash}
}

// delIn removes k from the subtree n at shift, claiming each node before
// it mutates it, and reports whether k was there. A subtree left holding
// a single entry collapses into its parent's datamap, so a key set has
// exactly one trie shape no matter how it was reached.
func (m Map[K, V]) delIn(e *Edit, n *node[K, V], shift uint, h uint64, k K) (*node[K, V], bool) {
	if n.coll {
		for i := range n.keys {
			if n.keys[i] != k {
				continue
			}
			if len(n.keys) == 1 {
				return nil, true
			}
			n = claim(e, n)
			n.removeEntry(i)
			return n, true
		}
		return n, false
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	switch {
	case n.datamap&bit != 0:
		i := bits.OnesCount64(n.datamap & (bit - 1))
		if n.keys[i] != k {
			return n, false
		}
		if len(n.keys) == 1 && n.nodemap == 0 {
			return nil, true
		}
		n = claim(e, n)
		n.datamap &^= bit
		n.removeEntry(i)
		return n, true
	case n.nodemap&bit != 0:
		j := bits.OnesCount64(n.nodemap & (bit - 1))
		sub, removed := m.delIn(e, n.subs[j], shift+branchBits, h, k)
		if !removed {
			return n, false
		}
		switch {
		case sub == nil:
			if len(n.subs) == 1 && n.datamap == 0 {
				return nil, true
			}
			n = claim(e, n)
			n.nodemap &^= bit
			n.removeSub(j)
			return n, true
		case sub.inlineable():
			i := bits.OnesCount64(n.datamap & (bit - 1))
			key, val := sub.keys[0], sub.vals[0]
			n = claim(e, n)
			n.datamap |= bit
			n.nodemap &^= bit
			n.insertEntry(i, key, val)
			n.removeSub(j)
			return n, true
		case sub == n.subs[j]:
			return n, true // the subtree was written in place
		default:
			n = claim(e, n)
			n.setSub(j, sub)
			return n, true
		}
	default:
		return n, false
	}
}

// insertOwned inserts v before index i: in place when the node owns s
// (growth via append is fine, the backing array is private), else into
// a fresh copy.
func insertOwned[T any](s []T, owned bool, i int, v T) []T {
	if !owned {
		return insertAt(s, i, v)
	}
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeOwned removes the element at index i: in place when the node owns
// s, zeroing the vacated tail slot so owned slices never pin dead values,
// else into a fresh copy.
func removeOwned[T any](s []T, owned bool, i int) []T {
	if !owned {
		return removeAt(s, i)
	}
	copy(s[i:], s[i+1:])
	var zero T
	s[len(s)-1] = zero
	return s[:len(s)-1]
}
