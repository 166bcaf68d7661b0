package graph

import (
	"bytes"
	"errors"
	"math"
	"strings"
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
	l.AddAttr("tags", "museum")
	l.AddAttr("tags", "beach")
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
	unsorted.SetAttrs(Attrs{{Key: "tags", Vals: []string{"museum"}}, {Key: "rating", Vals: []string{"4"}}, {Key: "date"}})
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
		l.AddAttr("tags", "museum")
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

// fuzzAttrs reads one attribute set from the front of data: up to two
// keys of up to three bytes, each with up to two values of up to 70 bytes
// (past the shared-pair bound), built with Add as callers build them. It
// returns the set and the bytes left.
func fuzzAttrs(data []byte) (Attrs, []byte) {
	take := func(n int) string {
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	a := Attrs{}
	for k := next() % 3; k > 0; k-- {
		key := take(next() % 4)
		for v := next() % 3; v > 0; v-- {
			a.Add(key, take(next()%71))
		}
	}
	return a, data
}

// FuzzStoredAttrs: bytes become attribute sets, stored through Apply as
// add-links and put-link merges onto a handful of link ids, and decoded
// through the binary codec. Every stored link must hold exactly what was
// applied or merged, however the callers' copies and clones of stored
// links are mutated afterwards, and no shared set may ever differ from
// the pair it is filed under.
func FuzzStoredAttrs(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 't', 'a', 'g', 's', 1, 6, 'm', 'u', 's', 'e', 'u', 'm'})
	f.Add([]byte{0, 1, 1, 1, 'k', 1, 1, 'v', 1, 1, 1, 1, 'k', 1, 1, 'w', 2, 2, 1, 1, 'k', 1, 1, 'v'})
	f.Add([]byte{0, 2, 2, 1, 'a', 2, 1, 'x', 1, 'y', 1, 'b', 1, 70, 'l', 'o', 'n', 'g'})
	f.Add(bytes.Repeat([]byte{1, 3, 1, 1, 'k', 1, 2, 'v', 'w'}, 4))
	f.Fuzz(storedAttrsCase)
}

func storedAttrsCase(t *testing.T, data []byte) {
	g := New()
	for id := NodeID(1); id <= 2; id++ {
		if err := g.AddNode(NewNode(id, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[LinkID]Attrs{}
	for steps := 0; len(data) >= 2 && steps < 64; steps++ {
		op, id := data[0]%3, LinkID(data[1]%4+1)
		var a Attrs
		a, data = fuzzAttrs(data[2:])
		switch op {
		case 0, 1:
			kind := MutAddLink
			if op == 1 {
				kind = MutPutLink
			}
			l := NewLink(id, 1, 2, TypeAct, SubtypeTag)
			l.SetAttrs(a.Clone())
			if err := g.Apply(Mutation{Kind: kind, Link: l}); err != nil {
				t.Fatal(err)
			}
			if w, ok := want[id]; ok {
				w.Merge(a)
				want[id] = w
			} else {
				want[id] = a.Clone()
			}
			l.SetAttr("tags", "caller")
			l.AddAttr("zz", "caller")
		case 2:
			l := NewLink(id, 1, 2, TypeAct, SubtypeTag)
			l.SetAttrs(a)
			got, _, err := DecodeLinkBin(AppendLinkBin(nil, l))
			if err != nil || !got.Attrs().Equal(a) {
				t.Fatalf("DecodeLinkBin decoded %v (%v), want %v", got, err, a)
			}
		}
		for lid, w := range want {
			stored := g.Link(lid)
			if !stored.Attrs().Equal(w) {
				t.Fatalf("link %d holds %v, want %v", lid, stored.Attrs(), w)
			}
			c := stored.Clone()
			c.SetAttr("tags", "clone")
			c.AddAttr("zz", "clone")
			c.MergeAttrs(a)
		}
	}
	checkAttrTable(t, &attrSets)
}

// FuzzStoredLink: any link DecodeLinkBin accepts is already in the form a
// graph stores, and storing it again changes nothing: the stored copy
// re-encodes to the decoded link's bytes and is Equal to it. Mutating a
// Clone of a stored link, or a struct copy of one holding a shared body,
// leaves every link holding that body unchanged.
func FuzzStoredLink(f *testing.F) {
	tagged := NewLink(1, 2, 3, TypeAct, SubtypeTag)
	tagged.SetAttr("tags", "museum")
	rated := NewLink(4, 2, 3, TypeAct, SubtypeRating)
	rated.SetAttr("rating", "4")
	rated.SetAttr("tags", "museum", "family")
	scored := NewLink(5, 2, 3, TypeMatch)
	scored.SetScore(0.5)
	odd := NewLink(6, 3, 2, "custom", TypeAct)
	odd.SetAttr("tags", "museum")
	long := NewLink(7, 2, 3, TypeBelong)
	long.SetAttr("note", strings.Repeat("x", maxSharedAttrBytes))
	for _, l := range []*Link{tagged, rated, scored, odd, long, NewLink(8, 2, 2, TypeConnect, SubtypeFriend), {ID: 9}} {
		f.Add(AppendLinkBin(nil, l))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, _, err := DecodeLinkBin(data)
		if err != nil {
			return
		}
		want := AppendLinkBin(nil, l)
		s := l.stored()
		if got := AppendLinkBin(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("stored %v encodes to %x, the decoded link %v to %x", s, got, l, want)
		}
		if !s.Equal(l) || !l.Equal(s) {
			t.Fatalf("stored %v is not Equal to the decoded %v", s, l)
		}
		sibling := s.stored()
		if s.b != nil && s.b.shared && sibling.b != s.b {
			t.Fatalf("storing a link with an interned body gave it another body")
		}
		mutate := func(c *Link) {
			c.AddType("fuzzed")
			c.SetAttr("tags", "clone")
			c.AddAttr("zz", "clone")
			c.MergeAttrs(NewAttrs("tags", "merged"))
			c.SetScore(-1)
		}
		mutate(s.Clone())
		mutate(l.Clone())
		if s.b != nil && s.b.shared {
			c := *s
			mutate(&c)
		}
		for _, x := range []*Link{l, s, sibling} {
			if got := AppendLinkBin(nil, x); !bytes.Equal(got, want) {
				t.Fatalf("mutating a copy changed a link sharing its body: %v", x)
			}
		}
	})
}
