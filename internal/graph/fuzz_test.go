package graph

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// FuzzDecodeMutations feeds arbitrary bytes — truncations, bit flips,
// absurd counts — to the WAL payload decoder. It must never panic, must
// reject bad input with ErrBinCorrupt, and whatever it accepts must
// survive a re-encode: DecodeMutations(AppendMutations(m)) equals m.
func FuzzDecodeMutations(f *testing.F) {
	n := NewNode(7, "user", "traveler")
	n.Attrs.Add("name", "ann")
	n.SetScore(0.5)
	l := NewLink(9, 7, 8, TypeAct, SubtypeTag)
	l.Attrs.Add("tags", "museum")
	l.Attrs.Add("tags", "beach")
	prev := NewLink(9, 7, 8, TypeAct)
	prev.SetScore(math.NaN())
	batch := AppendMutations(nil, []Mutation{
		{Kind: MutAddNode, Node: n},
		{Kind: MutPutNode, Node: NewNode(7, "reviewer")},
		{Kind: MutAddLink, Link: l},
		{Kind: MutPutLink, Link: l, Prev: prev},
		{Kind: MutRemoveLink, Link: l},
		{Kind: MutRemoveNode, Node: n},
	})
	f.Add(AppendMutations(nil, nil))
	f.Add(AppendMutations(nil, []Mutation{{Kind: MutAddLink, Link: NewLink(1, 2, 3)}}))
	f.Add(batch)
	f.Add(batch[:len(batch)-3]) // torn tail
	f.Add(append(bytes.Clone(batch), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // absurd count
	// Attributes the encoder never writes: a literal bypasses the sorted,
	// unique-key invariant the mutators keep.
	dup := NewNode(7, "user")
	dup.Attrs = Attrs{{Key: "name", Vals: []string{"ann"}}, {Key: "name", Vals: []string{"bob"}}}
	unsorted := NewLink(9, 7, 8, TypeAct)
	unsorted.Attrs = Attrs{{Key: "tags", Vals: []string{"museum"}}, {Key: "rating", Vals: []string{"4"}}, {Key: "date"}}
	f.Add(AppendMutations(nil, []Mutation{{Kind: MutAddNode, Node: dup}, {Kind: MutAddLink, Link: unsorted}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		muts, err := DecodeMutations(data)
		if err != nil {
			if !errors.Is(err, ErrBinCorrupt) {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		// Mutations are compared by their canonical encoding: every field,
		// in order, score bits included (Node.Equal would call a NaN score
		// unequal to itself).
		enc := AppendMutations(nil, muts)
		again, err := DecodeMutations(enc)
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		if !bytes.Equal(AppendMutations(nil, again), enc) {
			t.Fatalf("decoded batch of %d mutations does not round-trip", len(muts))
		}
	})
}

// FuzzCkptReader feeds arbitrary bytes to the checkpoint reader as a full
// checkpoint followed by one delta: section framing, persist trie node
// records and the node and link records inside them. It must never
// panic, and never size an allocation from a length it has not checked.
// Whatever it accepts must be a graph its own maps can serve: every
// entry found by lookup, sizes that match the entries, and a fresh
// checkpoint of it read back equal.
func FuzzCkptReader(f *testing.F) {
	g := New()
	for i := NodeID(1); i <= 12; i++ {
		n := NewNode(i, TypeUser)
		n.Attrs.Add("name", string(rune('a'+i)))
		if i%4 == 0 {
			n.SetScore(float64(i) / 3)
		}
		if err := g.AddNode(n); err != nil {
			f.Fatal(err)
		}
	}
	for i := LinkID(1); i <= 20; i++ {
		l := NewLink(i, NodeID(1+i%12), NodeID(1+(i*5)%12), TypeAct, SubtypeTag)
		l.Attrs.Add("tags", "museum")
		if err := g.AddLink(l); err != nil {
			f.Fatal(err)
		}
	}
	w := NewCkptWriter()
	full := w.AppendCheckpoint(nil, g)
	g.RemoveNode(3)
	if err := g.AddNode(NewNode(13, TypeItem)); err != nil {
		f.Fatal(err)
	}
	if err := g.AddLink(NewLink(21, 13, 1, TypeAct)); err != nil {
		f.Fatal(err)
	}
	delta := w.AppendCheckpoint(nil, g)
	empty := NewCkptWriter().AppendCheckpoint(nil, New())
	f.Add(full, delta)
	f.Add(full, empty)
	f.Add(empty, empty)
	f.Add(full[:len(full)/2], delta)
	f.Add(full, delta[:len(delta)-1])

	f.Fuzz(func(t *testing.T, full, delta []byte) {
		r := NewCkptReader()
		for _, data := range [][]byte{full, delta} {
			got, err := r.Apply(data)
			if err != nil {
				return
			}
			nodes, links := 0, 0
			got.nodes.Range(func(id NodeID, _ *Node) bool {
				if nodes++; !got.HasNode(id) {
					t.Fatalf("node %d ranged but not found", id)
				}
				return true
			})
			got.links.Range(func(id LinkID, _ *Link) bool {
				if links++; !got.HasLink(id) {
					t.Fatalf("link %d ranged but not found", id)
				}
				return true
			})
			if nodes != got.NumNodes() || links != got.NumLinks() {
				t.Fatalf("sizes %d/%d, entries %d/%d", got.NumNodes(), got.NumLinks(), nodes, links)
			}
			again, err := NewCkptReader().Apply(NewCkptWriter().AppendCheckpoint(nil, got))
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if !again.Equal(got) || again.MaxNodeID() != got.MaxNodeID() || again.MaxLinkID() != got.MaxLinkID() {
				t.Fatal("accepted checkpoint does not round-trip")
			}
		}
	})
}
