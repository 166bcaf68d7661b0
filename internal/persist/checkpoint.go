package persist

// Checkpoint encoding for persistent maps. A checkpoint serializes the
// trie as a flat sequence of node records with globally sequential ids,
// children before parents, so records reference their subtrees by id.
// The ids — and the CkptState that remembers which live *node carries
// which id — are what make deltas work: structural sharing means a map
// a few batches after the last checkpoint consists almost entirely of
// trie nodes the previous checkpoint already wrote, and EncodeDelta
// emits only the nodes the state has not seen. A decoder accumulates
// the node table across the checkpoint chain, so a delta file is
// meaningful only on top of its ancestors.
//
// Node record format (all integers unsigned varints):
//
//	branch:    0x00, datamap, nodemap,
//	           popcount(datamap) × (key, value),
//	           popcount(nodemap) × child id
//	collision: 0x01, count, count × (key, value)
//
// Ids start at 1; 0 is the nil root (empty map). Children always carry
// smaller ids than parents, so decoding is a single pass and cycles are
// impossible by construction. Key and value codecs are supplied by the
// caller (the graph layer), keeping this file agnostic of what the map
// stores.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// AppendEncoder serializes v by appending to dst, returning the
// extended slice.
type AppendEncoder[T any] func(dst []byte, v T) []byte

// Decoder deserializes one value from the front of src, returning the
// value and the bytes consumed. It must reject malformed input with an
// error, never panic.
type Decoder[T any] func(src []byte) (T, int, error)

// ErrCkptCorrupt is returned by checkpoint decoding on malformed input.
var ErrCkptCorrupt = errors.New("persist: corrupt checkpoint")

// CkptState tracks which live trie nodes have already been written by a
// checkpoint chain, keyed by pointer identity (nodes are immutable once
// published, so a pointer is a faithful identity). One state serves one
// map lineage; a full checkpoint is simply a delta against a fresh
// state.
type CkptState[K comparable, V any] struct {
	ids  map[*node[K, V]]uint64
	next uint64
}

// NewCkptState returns an empty state: the next EncodeDelta against it
// writes the whole trie (a full checkpoint).
func NewCkptState[K comparable, V any]() *CkptState[K, V] {
	return &CkptState[K, V]{ids: make(map[*node[K, V]]uint64), next: 1}
}

// Emitted returns how many node ids the chain has assigned so far.
func (st *CkptState[K, V]) Emitted() uint64 { return st.next - 1 }

// EncodeDelta appends to dst the records of every trie node of m not
// already covered by the state, children before parents, and returns
// the extended buffer plus the id of m's root (0 for an empty map).
// Afterwards the state covers exactly m's reachable nodes — ids of
// nodes no longer reachable are forgotten (they can never be referenced
// again), keeping the state O(live trie) across arbitrarily long
// chains.
func (st *CkptState[K, V]) EncodeDelta(dst []byte, m Map[K, V], encK AppendEncoder[K], encV AppendEncoder[V]) ([]byte, uint64) {
	var rootID uint64
	if len(st.ids) == 0 {
		// A full checkpoint: every node it assigns an id is reachable, so
		// the ids it leaves are already the reachable set.
		if m.root != nil {
			st.ids = make(map[*node[K, V]]uint64, m.root.count())
			dst, rootID = st.emit(dst, m.root, encK, encV)
		}
		return dst, rootID
	}
	if m.root != nil {
		dst, rootID = st.emit(dst, m.root, encK, encV)
	}
	reach := make(map[*node[K, V]]uint64, len(st.ids))
	if m.root != nil {
		st.retain(m.root, reach)
	}
	st.ids = reach
	return dst, rootID
}

func (st *CkptState[K, V]) emit(dst []byte, n *node[K, V], encK AppendEncoder[K], encV AppendEncoder[V]) ([]byte, uint64) {
	if id, ok := st.ids[n]; ok {
		return dst, id
	}
	if n.coll {
		dst = append(dst, 0x01)
		dst = binary.AppendUvarint(dst, uint64(len(n.keys)))
		for i := range n.keys {
			dst = encK(dst, n.keys[i])
			dst = encV(dst, n.vals[i])
		}
	} else {
		var subIDs [64]uint64
		for i, sub := range n.subs {
			dst, subIDs[i] = st.emit(dst, sub, encK, encV)
		}
		dst = append(dst, 0x00)
		dst = binary.AppendUvarint(dst, n.datamap)
		dst = binary.AppendUvarint(dst, n.nodemap)
		for i := range n.keys {
			dst = encK(dst, n.keys[i])
			dst = encV(dst, n.vals[i])
		}
		for i := range n.subs {
			dst = binary.AppendUvarint(dst, subIDs[i])
		}
	}
	id := st.next
	st.next++
	st.ids[n] = id
	return dst, id
}

// count returns the number of nodes in the trie under n.
func (n *node[K, V]) count() int {
	c := 1
	for _, sub := range n.subs {
		c += sub.count()
	}
	return c
}

func (st *CkptState[K, V]) retain(n *node[K, V], reach map[*node[K, V]]uint64) {
	if _, ok := reach[n]; ok {
		return
	}
	reach[n] = st.ids[n]
	for _, sub := range n.subs {
		st.retain(sub, reach)
	}
}

// CkptLoader accumulates decoded trie nodes across a checkpoint chain —
// full checkpoint first, then each delta in order — and materializes
// Maps from root ids.
type CkptLoader[K comparable, V any] struct {
	nodes []*node[K, V] // nodes[id-1]
}

// Decoded returns how many node ids the loader has materialized.
func (ld *CkptLoader[K, V]) Decoded() uint64 { return uint64(len(ld.nodes)) }

// DecodeDelta decodes one checkpoint file's node records, appending to
// the chain's node table. Records must reference only already-decoded
// ids; any malformed framing yields ErrCkptCorrupt.
func (ld *CkptLoader[K, V]) DecodeDelta(data []byte, decK Decoder[K], decV Decoder[V]) error {
	off := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad varint at offset %d", ErrCkptCorrupt, off)
		}
		off += n
		return v, nil
	}
	readEntry := func() (k K, v V, err error) {
		k, kn, err := decK(data[off:])
		if err != nil {
			return k, v, fmt.Errorf("%w: key at offset %d: %v", ErrCkptCorrupt, off, err)
		}
		off += kn
		v, vn, err := decV(data[off:])
		if err != nil {
			return k, v, fmt.Errorf("%w: value at offset %d: %v", ErrCkptCorrupt, off, err)
		}
		off += vn
		return k, v, nil
	}
	for off < len(data) {
		tag := data[off]
		off++
		n := &node[K, V]{}
		switch tag {
		case 0x01:
			n.coll = true
			count, err := readUvarint()
			if err != nil {
				return err
			}
			if count < 1 || count > uint64(len(data)) {
				return fmt.Errorf("%w: collision count %d", ErrCkptCorrupt, count)
			}
			// Allocate for no more entries than the bytes left could
			// hold, at two or more each: a count is a claim until read.
			c := min(count, uint64(len(data)-off)/2)
			n.keys, n.vals = make([]K, 0, c), make([]V, 0, c)
			for i := uint64(0); i < count; i++ {
				k, v, err := readEntry()
				if err != nil {
					return err
				}
				n.keys, n.vals = append(n.keys, k), append(n.vals, v)
			}
		case 0x00:
			var err error
			if n.datamap, err = readUvarint(); err != nil {
				return err
			}
			if n.nodemap, err = readUvarint(); err != nil {
				return err
			}
			if n.datamap&n.nodemap != 0 {
				return fmt.Errorf("%w: overlapping bitmaps", ErrCkptCorrupt)
			}
			// A bitmap names at most 64 slots: no count here is large.
			if d := bits.OnesCount64(n.datamap); d > 0 {
				n.keys, n.vals = make([]K, d), make([]V, d)
			}
			for i := range n.keys {
				if n.keys[i], n.vals[i], err = readEntry(); err != nil {
					return err
				}
			}
			if s := bits.OnesCount64(n.nodemap); s > 0 {
				n.subs = make([]*node[K, V], s)
			}
			for i := range n.subs {
				id, err := readUvarint()
				if err != nil {
					return err
				}
				if id < 1 || id > uint64(len(ld.nodes)) {
					return fmt.Errorf("%w: child id %d of %d known", ErrCkptCorrupt, id, len(ld.nodes))
				}
				n.subs[i] = ld.nodes[id-1]
			}
		default:
			return fmt.Errorf("%w: unknown node tag %#x", ErrCkptCorrupt, tag)
		}
		ld.nodes = append(ld.nodes, n)
	}
	return nil
}

// Map materializes the map whose root carries rootID (0 for empty) with
// size entries. proto supplies the hash function — it must be the same
// family the encoded map used, or lookups will miss. The trie is checked
// in one pass before it is trusted, so lookups find what Range visits and
// Len — which callers size allocations by — is a count, not a claim.
func (ld *CkptLoader[K, V]) Map(proto Map[K, V], rootID uint64, size int) (Map[K, V], error) {
	if rootID == 0 {
		if size != 0 {
			return proto, fmt.Errorf("%w: empty root with size %d", ErrCkptCorrupt, size)
		}
		return Map[K, V]{hash: proto.hash}, nil
	}
	if rootID > uint64(len(ld.nodes)) {
		return proto, fmt.Errorf("%w: root id %d of %d known", ErrCkptCorrupt, rootID, len(ld.nodes))
	}
	root := ld.nodes[rootID-1]
	if n, ok := root.check(proto.hash, 0, 0); !ok || n != size {
		return proto, fmt.Errorf("%w: root %d is no trie of %d entries", ErrCkptCorrupt, rootID, size)
	}
	return Map[K, V]{root: root, size: size, hash: proto.hash}, nil
}

// check counts the entries under n, a node at shift whose slots so far
// spell path (the low shift bits of every hash below it), and fails on a
// trie lookups could not serve: an entry off its hash path, an empty
// branch, a collision bucket above the last hash level or with a repeated
// key. Every node holds an entry, so a node reachable by two paths fails
// at its first entry and the walk stays linear in the trie.
func (n *node[K, V]) check(hash func(K) uint64, shift uint, path uint64) (int, bool) {
	if n.coll != (shift > maxShift) || !n.coll && n.datamap|n.nodemap == 0 {
		return 0, false
	}
	if n.coll {
		for i, k := range n.keys {
			if hash(k) != path || slices.Contains(n.keys[:i], k) {
				return 0, false
			}
		}
		return len(n.keys), true
	}
	count, di, si := len(n.keys), 0, 0
	for slots := n.datamap | n.nodemap; slots != 0; slots &= slots - 1 {
		slot := uint64(bits.TrailingZeros64(slots))
		want := path | slot<<shift
		switch {
		case want>>shift != slot: // past the hash's last bit
			return 0, false
		case n.datamap&(1<<slot) != 0:
			if hash(n.keys[di])&^(^uint64(0)<<(shift+branchBits)) != want {
				return 0, false
			}
			di++
		default:
			c, ok := n.subs[si].check(hash, shift+branchBits, want)
			if !ok {
				return 0, false
			}
			count, si = count+c, si+1
		}
	}
	return count, true
}
