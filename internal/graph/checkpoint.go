package graph

// Binary codecs for the durability subsystem: compact encodings of
// nodes, links and mutation batches (WAL record payloads), and the
// graph checkpoint built on persist's delta node encoding. JSON
// (encode.go) remains the interchange format for datasets; this format
// is the on-disk format of the WAL and checkpoint files, where byte
// economy and deterministic encoding matter.
//
// All encoders are canonical: attribute keys are written sorted, so
// equal values encode to equal bytes and unchanged trie regions encode
// identically checkpoint after checkpoint.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"socialscope/internal/persist"
)

// ErrBinCorrupt is returned by the binary decoders on malformed input.
var ErrBinCorrupt = errors.New("graph: corrupt binary encoding")

func binUvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, ErrBinCorrupt
	}
	return v, n, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func binString(src []byte) (string, int, error) {
	b, n, err := binBytes(src)
	return string(b), n, err
}

// binBytes decodes what appendString wrote, as a slice of src.
func binBytes(src []byte) ([]byte, int, error) {
	l, n, err := binUvarint(src)
	if err != nil || l > uint64(len(src)-n) {
		return nil, 0, ErrBinCorrupt
	}
	return src[n : n+int(l)], n + int(l), nil
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

func binStrings(src []byte) ([]string, int, error) {
	count, off, err := binUvarint(src)
	if err != nil || count > uint64(len(src)) {
		return nil, 0, ErrBinCorrupt
	}
	var ss []string
	if count > 0 {
		ss = make([]string, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		s, n, err := binString(src[off:])
		if err != nil {
			return nil, 0, err
		}
		ss = append(ss, s)
		off += n
	}
	return ss, off, nil
}

func appendAttrs(dst []byte, a Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	for _, at := range a { // sorted: canonical bytes
		dst = appendString(dst, at.Key)
		dst = appendStrings(dst, at.Vals)
	}
	return dst
}

// binAttrs decodes what appendAttrs wrote. Input it did not write is made
// canonical: a repeated key is last-wins, and keys out of order come back
// sorted.
func binAttrs(src []byte) (Attrs, int, error) {
	count, off, err := binUvarint(src)
	if err != nil || count > uint64(len(src)) {
		return nil, 0, ErrBinCorrupt
	}
	a := make(Attrs, 0, count)
	sorted := true
	for i := uint64(0); i < count; i++ {
		k, n, err := binString(src[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		vs, n, err := binStrings(src[off:])
		if err != nil {
			return nil, 0, err
		}
		off += n
		if len(a) > 0 && k <= a[len(a)-1].Key {
			sorted = false
		}
		a = append(a, Attr{Key: k, Vals: vs})
	}
	if !sorted {
		slices.SortStableFunc(a, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
		last := a[:0]
		for i, at := range a {
			if i+1 == len(a) || a[i+1].Key != at.Key {
				last = append(last, at)
			}
		}
		a = last
	}
	return a, off, nil
}

// binSharedAttr decodes the front of src as a shared set, returning its
// entry, or nil when it is not one key with one value or is too long to
// share (see attrSets).
func binSharedAttr(src []byte) (*attrEntry, int) {
	count, off, err := binUvarint(src)
	if err != nil || count != 1 {
		return nil, 0
	}
	key, n, err := binBytes(src[off:])
	if err != nil {
		return nil, 0
	}
	off += n
	vals, n, err := binUvarint(src[off:])
	if err != nil || vals != 1 {
		return nil, 0
	}
	off += n
	val, n, err := binBytes(src[off:])
	if err != nil {
		return nil, 0
	}
	if e := attrSets.getBytes(key, val); e != nil {
		return e, off + n
	}
	return nil, 0
}

// binSharedTypes decodes what appendStrings wrote when it spells a
// catalog type set, returning that set's index in linkTypeSets and
// building no string. It returns -1, 0 for anything else, which
// binStrings decodes.
func binSharedTypes(src []byte) (int, int) {
	count, off, err := binUvarint(src)
	if err != nil || count == 0 || count > maxLinkTypeSet {
		return -1, 0
	}
	var ts [maxLinkTypeSet][]byte
	for i := range ts[:count] {
		b, n, err := binBytes(src[off:])
		if err != nil {
			return -1, 0
		}
		ts[i], off = b, off+n
	}
sets:
	for i, set := range linkTypeSets {
		if uint64(len(set)) != count {
			continue
		}
		for j, t := range set {
			if string(ts[j]) != t {
				continue sets
			}
		}
		return i, off
	}
	return -1, 0
}

func appendScore(dst []byte, score float64, scored bool) []byte {
	if !scored {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(score))
}

func binScore(src []byte) (float64, bool, int, error) {
	if len(src) < 1 {
		return 0, false, 0, ErrBinCorrupt
	}
	if src[0] == 0 {
		return 0, false, 1, nil
	}
	if src[0] != 1 || len(src) < 9 {
		return 0, false, 0, ErrBinCorrupt
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src[1:9])), true, 9, nil
}

// AppendNodeBin appends the binary encoding of n to dst.
func AppendNodeBin(dst []byte, n *Node) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.ID))
	dst = appendStrings(dst, n.Types)
	dst = appendAttrs(dst, n.Attrs)
	return appendScore(dst, n.Score, n.Scored)
}

// DecodeNodeBin decodes one node from the front of src, returning it
// and the bytes consumed.
func DecodeNodeBin(src []byte) (*Node, int, error) {
	id, off, err := binUvarint(src)
	if err != nil {
		return nil, 0, err
	}
	types, n, err := binStrings(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	attrs, n, err := binAttrs(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	score, scored, n, err := binScore(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	return &Node{ID: NodeID(id), Types: types, Attrs: attrs, Score: score, Scored: scored}, off, nil
}

// AppendLinkBin appends the binary encoding of l to dst.
func AppendLinkBin(dst []byte, l *Link) []byte {
	dst = binary.AppendUvarint(dst, uint64(l.ID))
	dst = binary.AppendUvarint(dst, uint64(l.Src))
	dst = binary.AppendUvarint(dst, uint64(l.Tgt))
	dst = appendStrings(dst, l.Types())
	dst = appendAttrs(dst, l.Attrs())
	return appendScore(dst, l.Score(), l.Scored())
}

// DecodeLinkBin decodes one link from the front of src, returning it
// and the bytes consumed. The link is in the form a graph stores (see
// Link), so a checkpoint load keeps one body per interned pair.
func DecodeLinkBin(src []byte) (*Link, int, error) {
	id, off, err := binUvarint(src)
	if err != nil {
		return nil, 0, err
	}
	srcID, n, err := binUvarint(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	tgtID, n, err := binUvarint(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	var types []string
	ti, n := binSharedTypes(src[off:])
	if ti >= 0 {
		types = linkTypeSets[ti]
	} else if types, n, err = binStrings(src[off:]); err != nil {
		return nil, 0, err
	}
	off += n
	var attrs Attrs
	e, n := binSharedAttr(src[off:])
	if e != nil {
		attrs = e.set
	} else if attrs, n, err = binAttrs(src[off:]); err != nil {
		return nil, 0, err
	}
	off += n
	score, scored, n, err := binScore(src[off:])
	if err != nil {
		return nil, 0, err
	}
	off += n
	// The interned body of a catalog type set and a shared or empty
	// attribute set is at hand: storedLink would look both up again.
	if !scored && ti >= 0 {
		if e != nil {
			return &Link{ID: LinkID(id), Src: NodeID(srcID), Tgt: NodeID(tgtID), b: e.body(ti)}, off, nil
		}
		if len(attrs) == 0 {
			return &Link{ID: LinkID(id), Src: NodeID(srcID), Tgt: NodeID(tgtID), b: emptyBodies[ti]}, off, nil
		}
	}
	return storedLink(LinkID(id), NodeID(srcID), NodeID(tgtID), types, attrs, score, scored), off, nil
}

// AppendMutations appends the binary encoding of a mutation batch to
// dst — the WAL record payload for one Engine.Apply batch.
func AppendMutations(dst []byte, muts []Mutation) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(muts)))
	for _, m := range muts {
		dst = append(dst, byte(m.Kind))
		var flags byte
		if m.Node != nil {
			flags |= 1
		}
		if m.Link != nil {
			flags |= 2
		}
		if m.Prev != nil {
			flags |= 4
		}
		dst = append(dst, flags)
		if m.Node != nil {
			dst = AppendNodeBin(dst, m.Node)
		}
		if m.Link != nil {
			dst = AppendLinkBin(dst, m.Link)
		}
		if m.Prev != nil {
			dst = AppendLinkBin(dst, m.Prev)
		}
	}
	return dst
}

// DecodeMutations decodes a mutation batch encoded by AppendMutations.
// The whole of src must be consumed.
func DecodeMutations(src []byte) ([]Mutation, error) {
	count, off, err := binUvarint(src)
	if err != nil || count > uint64(len(src)) {
		return nil, ErrBinCorrupt
	}
	muts := make([]Mutation, 0, count)
	for i := uint64(0); i < count; i++ {
		if off+2 > len(src) {
			return nil, ErrBinCorrupt
		}
		kind := MutationKind(src[off])
		flags := src[off+1]
		off += 2
		if kind > MutRemoveLink || flags&^byte(7) != 0 {
			return nil, ErrBinCorrupt
		}
		var m Mutation
		m.Kind = kind
		if flags&1 != 0 {
			node, n, err := DecodeNodeBin(src[off:])
			if err != nil {
				return nil, err
			}
			m.Node = node
			off += n
		}
		if flags&2 != 0 {
			link, n, err := DecodeLinkBin(src[off:])
			if err != nil {
				return nil, err
			}
			m.Link = link
			off += n
		}
		if flags&4 != 0 {
			prev, n, err := DecodeLinkBin(src[off:])
			if err != nil {
				return nil, err
			}
			m.Prev = prev
			off += n
		}
		muts = append(muts, m)
	}
	if off != len(src) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinCorrupt, len(src)-off)
	}
	return muts, nil
}

// CkptWriter carries the delta state of one graph lineage across
// checkpoints: the node and link tries it has already written. A fresh
// writer produces a full checkpoint; the same writer invoked later
// writes only trie nodes created since — on an append-heavy stream,
// a small fraction of the graph.
type CkptWriter struct {
	nodes *persist.CkptState[NodeID, *Node]
	links *persist.CkptState[LinkID, *Link]
}

// NewCkptWriter returns a writer whose first checkpoint is full.
func NewCkptWriter() *CkptWriter {
	return &CkptWriter{
		nodes: persist.NewCkptState[NodeID, *Node](),
		links: persist.NewCkptState[LinkID, *Link](),
	}
}

// AppendCheckpoint appends g's checkpoint section to dst: the node and
// link trie deltas plus root ids, sizes and the id high-water marks.
// Adjacency indexes are not written — they are a deterministic function
// of the link set and are rebuilt on load. Each delta is encoded in place
// behind its length (AppendPrefixed), so dst is the only buffer: given
// the room the section needs, it never grows.
func (w *CkptWriter) AppendCheckpoint(dst []byte, g *Graph) []byte {
	var nodeRoot, linkRoot uint64
	dst = AppendPrefixed(dst, func(b []byte) []byte {
		b, nodeRoot = w.nodes.EncodeDelta(b, g.nodes,
			func(b []byte, id NodeID) []byte { return binary.AppendUvarint(b, uint64(id)) },
			AppendNodeBin)
		return b
	})
	dst = binary.AppendUvarint(dst, nodeRoot)
	dst = binary.AppendUvarint(dst, uint64(g.nodes.Len()))
	dst = AppendPrefixed(dst, func(b []byte) []byte {
		b, linkRoot = w.links.EncodeDelta(b, g.links,
			func(b []byte, id LinkID) []byte { return binary.AppendUvarint(b, uint64(id)) },
			AppendLinkBin)
		return b
	})
	dst = binary.AppendUvarint(dst, linkRoot)
	dst = binary.AppendUvarint(dst, uint64(g.links.Len()))
	dst = binary.AppendUvarint(dst, uint64(g.maxNode))
	dst = binary.AppendUvarint(dst, uint64(g.maxLink))
	return dst
}

// AppendPrefixed appends to dst the uvarint length of what fill appends,
// then that, with no second buffer: fill appends after room for the
// longest uvarint, and its bytes then move back over the room the length
// leaves.
func AppendPrefixed(dst []byte, fill func([]byte) []byte) []byte {
	at := len(dst)
	dst = fill(append(dst, make([]byte, binary.MaxVarintLen64)...))
	body := len(dst) - at - binary.MaxVarintLen64
	n := binary.PutUvarint(dst[at:], uint64(body))
	copy(dst[at+n:], dst[at+binary.MaxVarintLen64:])
	return dst[:at+n+body]
}

// CkptReader accumulates a checkpoint chain — the full checkpoint, then
// each delta in order — and materializes the graph each stage encoded.
type CkptReader struct {
	nodes persist.CkptLoader[NodeID, *Node]
	links persist.CkptLoader[LinkID, *Link]
}

// NewCkptReader returns an empty reader.
func NewCkptReader() *CkptReader { return &CkptReader{} }

func decNodeID(src []byte) (NodeID, int, error) {
	v, n, err := binUvarint(src)
	return NodeID(v), n, err
}

func decLinkID(src []byte) (LinkID, int, error) {
	v, n, err := binUvarint(src)
	return LinkID(v), n, err
}

// Apply decodes one checkpoint section on top of the chain read so far
// and returns the graph it encodes: node and link maps materialized
// from the accumulated tries, adjacency rebuilt from the link set in
// the same ascending-id order every Graph maintains.
func (r *CkptReader) Apply(data []byte) (*Graph, error) {
	g, err := r.fold(data)
	if err != nil {
		return nil, err
	}
	g.rebuildAdjacency()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: checkpoint inconsistent: %w", err)
	}
	return g, nil
}

// Fold is Apply for a section whose graph nobody reads, every file of a
// chain but the last: it decodes the section onto the chain and checks
// its tries as Apply does, but builds no adjacency and runs no Validate,
// which the last section's graph gets.
func (r *CkptReader) Fold(data []byte) error {
	_, err := r.fold(data)
	return err
}

// fold decodes one section onto the chain and returns the graph of its
// checked node and link tries and high-water marks, without adjacency.
func (r *CkptReader) fold(data []byte) (*Graph, error) {
	readUvarint := func(off *int) (uint64, error) {
		v, n, err := binUvarint(data[*off:])
		if err != nil {
			return 0, err
		}
		*off += n
		return v, nil
	}
	off := 0
	readSection := func() ([]byte, error) {
		l, err := readUvarint(&off)
		if err != nil || l > uint64(len(data)-off) {
			return nil, ErrBinCorrupt
		}
		sec := data[off : off+int(l)]
		off += int(l)
		return sec, nil
	}

	nodeDelta, err := readSection()
	if err != nil {
		return nil, err
	}
	if err := r.nodes.DecodeDelta(nodeDelta, decNodeID, DecodeNodeBin); err != nil {
		return nil, err
	}
	nodeRoot, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	nodeCount, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	linkDelta, err := readSection()
	if err != nil {
		return nil, err
	}
	if err := r.links.DecodeDelta(linkDelta, decLinkID, DecodeLinkBin); err != nil {
		return nil, err
	}
	linkRoot, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	linkCount, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	maxNode, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	maxLink, err := readUvarint(&off)
	if err != nil {
		return nil, err
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing checkpoint bytes", ErrBinCorrupt, len(data)-off)
	}

	g := New()
	if g.nodes, err = r.nodes.Map(g.nodes, nodeRoot, int(nodeCount)); err != nil {
		return nil, err
	}
	if g.links, err = r.links.Map(g.links, linkRoot, int(linkCount)); err != nil {
		return nil, err
	}
	g.maxNode = NodeID(maxNode)
	g.maxLink = LinkID(maxLink)
	if g.maxNode < 0 || g.maxLink < 0 {
		return nil, fmt.Errorf("%w: negative high-water mark", ErrBinCorrupt)
	}
	return g, nil
}

// rebuildAdjacency derives the out/in indexes from the link set, in the
// canonical ascending-link-id order.
func (g *Graph) rebuildAdjacency() {
	ls := make([]*Link, 0, g.links.Len())
	g.links.Range(func(_ LinkID, l *Link) bool {
		ls = append(ls, l)
		return true
	})
	g.setAdjacencyOf(ls)
}
