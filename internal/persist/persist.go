// Package persist implements a generic persistent (immutable,
// structurally-shared) hash map: a compressed hash-array-mapped trie in
// the CHAMP style. Every write — Set, Delete — returns a new Map that
// shares all untouched trie nodes with the receiver, so
//
//   - taking a snapshot is O(1): copy the small Map header;
//   - a write costs O(log n) node copies along one root-to-leaf path;
//   - readers of older versions never observe a write (RCU discipline:
//     publish a new version, never mutate a reachable one).
//
// This is the storage substrate that makes the live-update path of the
// SocialScope engine O(delta): graph snapshots (graph.ShallowClone) and
// index substrate snapshots (index ApplyDelta) copy a constant-size
// header instead of every entry.
//
// Iteration order is trie-path order: deterministic for a given key set —
// independent of insertion and deletion history, because deletes restore
// the canonical trie shape. Under NewIntMap's path (intPath) ids from 0
// to 2^16-1 come out in ascending order and larger ones in a fixed but
// unsorted order; under a hashed path (NewStringMap, NewMap over Hash64)
// the order is unsorted throughout. Callers that need sorted output
// collect and sort, exactly as they would over a built-in map.
//
// The zero Map is not ready for use: construct with NewMap (explicit hash
// function), NewIntMap or NewStringMap.
//
// A cold build from a known key set goes through Build (see build.go): one
// counting pass over the entries' hash paths, then the whole trie laid out
// in four exact-size slabs — nodes, keys, values and child pointers — a
// handful of allocations whatever the size. Every other write goes
// through one writer, SetWith/DeleteWith (see transient.go): under an
// Edit, a batch mutates in place the nodes it created itself; under a nil
// Edit — Set and Delete — it copies every node it touches. Either way a
// key set has one canonical trie shape, the one Build lays out.
package persist

import "math/bits"

const (
	// branchBits is the chunk of hash consumed per trie level; nodes fan
	// out up to 1<<branchBits ways, addressed through popcount-compressed
	// bitmaps.
	branchBits = 6
	branchMask = 1<<branchBits - 1
	// maxShift is the deepest level that still draws fresh hash bits from
	// a 64-bit hash; below it, equal-hash keys go to collision buckets.
	maxShift = 63 - (63 % branchBits)
)

// Map is a persistent hash-array-mapped-trie map from K to V. Map values
// are cheap headers (a root pointer, a count, the hash function); copying
// one is an O(1) snapshot. All methods are read-only on the receiver —
// Set and Delete return new Maps — so any number of goroutines may read
// any number of versions concurrently without synchronization. The usual
// single-writer discipline applies only to whatever variable holds the
// latest version.
type Map[K comparable, V any] struct {
	root *node[K, V]
	size int
	hash func(K) uint64
}

// NewMap returns an empty map that hashes keys with the given function.
// The hash must be deterministic for the lifetime of the map and spread
// keys across all 64 bits (strings with HashString, composite keys by
// combining their fields' Hash64 with Mix64; integer ids take NewIntMap).
func NewMap[K comparable, V any](hash func(K) uint64) Map[K, V] {
	return Map[K, V]{hash: hash}
}

// Integer matches the built-in integer kinds so NewIntMap can cover every
// id-like key type (graph.NodeID, graph.LinkID, plain ints).
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// NewIntMap returns an empty map keyed by an integer-like type, laid out
// by intPath: dense id ranges fill whole leaves instead of scattering one
// or two entries into each of thousands.
func NewIntMap[K Integer, V any]() Map[K, V] {
	return NewMap[K, V](func(k K) uint64 { return intPath(uint64(int64(k))) })
}

// leafBits is how many low id bits the third trie level reads: ids that
// differ only in them, 1<<leafBits consecutive ids, share one node. 16
// ids per leaf is where the trie's size per entry and the bytes a small
// batch of random writes copies balance: 8 copies less but holds more,
// 32 and 64 hold less but copy more.
const leafBits = 4

// intPath maps an integer key to its trie path, a bijection on 64-bit
// keys, so distinct ids never share a collision bucket. The root reads
// id bits [leafBits+6, leafBits+12), the level below it [leafBits,
// leafBits+6), and the third the low leafBits bits (with bits 16 and 17
// filling its chunk): a run of consecutive ids fills a leaf, and ids
// below 2^16 come out of Range in ascending order. Bits 18 and up pass
// through mix46 first, so keys an adversary picks to differ only in high
// bits still branch apart at the fourth level instead of growing a chain
// of single-child nodes down to the last.
func intPath(x uint64) uint64 {
	const (
		chunk = 1<<branchBits - 1
		leaf  = 1<<leafBits - 1
		fill  = 1<<(branchBits-leafBits) - 1
		low   = 3 * branchBits
	)
	p := x>>(leafBits+branchBits)&chunk |
		x>>leafBits&chunk<<branchBits |
		(x&leaf|x>>(leafBits+2*branchBits)&fill<<leafBits)<<(2*branchBits)
	return p | mix46(x>>low)<<low
}

// mix46 is a bijection on 46-bit values: xorshifts by 23 alternating with
// multiplications by odd constants, all mod 2^46.
func mix46(x uint64) uint64 {
	const mask = 1<<46 - 1
	x ^= x >> 23
	x = x * 0xbf58476d1ce4e5b9 & mask
	x ^= x >> 23
	x = x * 0x94d049bb133111eb & mask
	x ^= x >> 23
	return x
}

// NewStringMap returns an empty map keyed by strings.
func NewStringMap[V any]() Map[string, V] {
	return NewMap[string, V](HashString)
}

// Hash64 finalizes a 64-bit value into a well-mixed hash (the splitmix64
// finalizer), a bijection: the per-field hash of composite keys that
// Mix64 combines. Integer keys on their own take NewIntMap's intPath.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString hashes a string with 64-bit FNV-1a. Deterministic across
// processes, so trie shapes — and therefore iteration order — are
// reproducible run to run.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Mix64 combines two hashes into one, for composite keys.
func Mix64(a, b uint64) uint64 {
	return Hash64(a ^ (b*0x9e3779b97f4a7c15 + 0x7f4a7c15))
}

// node is one trie level. datamap marks slots holding inline entries
// (parallel keys/vals, in slot order); nodemap marks slots holding child
// pointers (subs, in slot order). A slot is never in both maps. Collision
// buckets — keys whose 64-bit hashes are fully equal — are nodes with
// coll set; they hold every colliding entry in keys/vals and use neither
// bitmap. Nodes are immutable once linked into a published Map.
type node[K comparable, V any] struct {
	datamap uint64
	nodemap uint64
	keys    []K
	vals    []V
	subs    []*node[K, V]
	coll    bool
	// own marks the slices a node claimed in a transient window has
	// copied (ownKeys, ownVals, ownSubs): the rest it still shares with
	// the node it was claimed from. Inert without a live edit.
	own uint8
	// edit, when non-nil, is the ownership token of the transient window
	// that created (or claimed) this node; writes carrying the same token
	// may mutate the node in place (see transient.go). Nodes reachable
	// from a published Map are never owned by any open window, so the
	// field is inert outside a bulk-mutation window.
	edit *Edit
}

// Len returns the number of entries. O(1).
func (m Map[K, V]) Len() int { return m.size }

// Get returns the value stored under k and whether it is present. When V
// is a reference type the value aliases the trie's shared state across
// every snapshot that includes this entry.
//
//ss:immutable — copy before mutating reference-typed values.
func (m Map[K, V]) Get(k K) (V, bool) {
	var zero V
	n := m.root
	if n == nil {
		return zero, false
	}
	h := m.hash(k)
	for shift := uint(0); ; shift += branchBits {
		if n.coll {
			for i := range n.keys {
				if n.keys[i] == k {
					return n.vals[i], true
				}
			}
			return zero, false
		}
		bit := uint64(1) << ((h >> shift) & branchMask)
		if n.datamap&bit != 0 {
			i := bits.OnesCount64(n.datamap & (bit - 1))
			if n.keys[i] == k {
				return n.vals[i], true
			}
			return zero, false
		}
		if n.nodemap&bit == 0 {
			return zero, false
		}
		n = n.subs[bits.OnesCount64(n.nodemap&(bit-1))]
	}
}

// At returns the value stored under k, or V's zero value when absent —
// the built-in map's indexing convenience for nil-tolerant value types
// (slices, maps, sets). When V is a reference type the value aliases the
// trie's shared state across every snapshot that includes this entry.
//
//ss:immutable — copy before mutating reference-typed values.
func (m Map[K, V]) At(k K) V {
	v, _ := m.Get(k)
	return v
}

// Has reports whether k is present.
func (m Map[K, V]) Has(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Set returns a map with k bound to v. The receiver is unchanged. It is
// SetWith under a nil Edit, which owns no node: every node on k's path is
// copied, so the result shares everything else with the receiver.
func (m Map[K, V]) Set(k K, v V) Map[K, V] { return m.SetWith(nil, k, v) }

// merge builds the minimal subtree holding two distinct keys, descending
// while their hash chunks collide and dropping into a collision bucket
// once the hash is exhausted. The fresh nodes are stamped with e (nil for
// Set) so a batch under e keeps owning the region.
func (m Map[K, V]) merge(e *Edit, shift uint, h1 uint64, k1 K, v1 V, h2 uint64, k2 K, v2 V) *node[K, V] {
	if shift > maxShift {
		return &node[K, V]{coll: true, keys: []K{k1, k2}, vals: []V{v1, v2}, edit: e, own: ownAll}
	}
	i1 := (h1 >> shift) & branchMask
	i2 := (h2 >> shift) & branchMask
	if i1 == i2 {
		return &node[K, V]{
			nodemap: 1 << i1,
			subs:    []*node[K, V]{m.merge(e, shift+branchBits, h1, k1, v1, h2, k2, v2)},
			edit:    e,
			own:     ownAll,
		}
	}
	if i1 > i2 {
		i1, i2 = i2, i1
		k1, k2 = k2, k1
		v1, v2 = v2, v1
	}
	return &node[K, V]{
		datamap: 1<<i1 | 1<<i2,
		keys:    []K{k1, k2},
		vals:    []V{v1, v2},
		edit:    e,
		own:     ownAll,
	}
}

// Delete returns a map without k. The receiver is unchanged; deleting an
// absent key returns the receiver as-is. It is DeleteWith under a nil
// Edit.
func (m Map[K, V]) Delete(k K) Map[K, V] { return m.DeleteWith(nil, k) }

// inlineable reports whether the node holds exactly one entry and no
// subtrees, so a parent can absorb it as an inline entry.
func (n *node[K, V]) inlineable() bool {
	if n.coll {
		return len(n.keys) == 1
	}
	return len(n.subs) == 0 && len(n.keys) == 1
}

// Range calls fn for every entry until fn returns false. The order is
// trie-path order: fixed for a given key set, unrelated to insertion
// order (see the package doc).
// fn must not write to the map variable being ranged (take a snapshot
// first — it is free).
func (m Map[K, V]) Range(fn func(K, V) bool) {
	if m.root != nil {
		m.root.visit(fn)
	}
}

func (n *node[K, V]) visit(fn func(K, V) bool) bool {
	if n.coll {
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	// Interleave inline entries and subtrees in slot order so iteration
	// follows the hash-path order at every depth.
	di, si := 0, 0
	remaining := n.datamap | n.nodemap
	for remaining != 0 {
		bit := remaining & (-remaining)
		remaining &^= bit
		if n.datamap&bit != 0 {
			if !fn(n.keys[di], n.vals[di]) {
				return false
			}
			di++
		} else {
			if !n.subs[si].visit(fn) {
				return false
			}
			si++
		}
	}
	return true
}

// Keys returns every key, in Range order.
func (m Map[K, V]) Keys() []K {
	out := make([]K, 0, m.size)
	m.Range(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// SpareSlots returns how many slots the trie's node slices hold beyond
// their length, O(trie): none for a Map laid out by Build or decoded from
// a checkpoint, whose nodes are all exact-size.
func (m Map[K, V]) SpareSlots() int {
	if m.root == nil {
		return 0
	}
	return m.root.spare()
}

func (n *node[K, V]) spare() int {
	s := cap(n.keys) - len(n.keys) + cap(n.vals) - len(n.vals) + cap(n.subs) - len(n.subs)
	for _, sub := range n.subs {
		s += sub.spare()
	}
	return s
}

// setAt returns a copy of s with s[i] replaced by v.
func setAt[T any](s []T, i int, v T) []T {
	c := make([]T, len(s))
	copy(c, s)
	c[i] = v
	return c
}

// insertAt returns a copy of s with v inserted before index i.
func insertAt[T any](s []T, i int, v T) []T {
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = v
	copy(c[i+1:], s[i:])
	return c
}

// removeAt returns a copy of s without the element at index i.
func removeAt[T any](s []T, i int) []T {
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}
