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
