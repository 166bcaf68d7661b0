package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a pseudo-random graph from a seed: n nodes, up to m
// links with random endpoints and types. Deterministic per seed.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	types := []string{TypeUser, TypeItem, TypeTopic}
	ltypes := []string{TypeConnect, TypeAct, TypeMatch, TypeBelong}
	for i := 1; i <= n; i++ {
		nd := NewNode(NodeID(i), types[rng.Intn(len(types))])
		nd.Attrs.SetInt("x", rng.Int63n(100))
		if err := g.AddNode(nd); err != nil {
			panic(err)
		}
	}
	for i := 1; i <= m; i++ {
		src := NodeID(rng.Intn(n) + 1)
		tgt := NodeID(rng.Intn(n) + 1)
		l := NewLink(LinkID(i), src, tgt, ltypes[rng.Intn(len(ltypes))])
		l.SetAttrFloat("w", rng.Float64())
		if err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	return g
}

func TestQuickRandomGraphsValidate(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 40)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 30)
		c := g.Clone()
		return g.Equal(c) && c.Equal(g) && c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickEncodeDecodeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 10, 20)
		var buf buffer
		if err := g.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return g.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// buffer is a minimal bytes buffer to avoid importing bytes in this file.
type buffer struct{ data []byte }

func (b *buffer) Write(p []byte) (int, error) { b.data = append(b.data, p...); return len(p), nil }
func (b *buffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, errEOF
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

var errEOF = eofError{}

type eofError struct{}

func (eofError) Error() string { return "EOF" }

func TestQuickInducedSubgraphIsSubgraph(t *testing.T) {
	f := func(seed int64, mask uint16) bool {
		g := randomGraph(seed, 12, 25)
		ids := make(map[NodeID]struct{})
		for i, id := range g.NodeIDs() {
			if mask&(1<<uint(i%16)) != 0 {
				ids[id] = struct{}{}
			}
		}
		sub := g.InducedByNodes(ids)
		if sub.Validate() != nil {
			return false
		}
		// Every sub link exists in g with both endpoints in the mask set.
		for _, l := range sub.Links() {
			if !g.HasLink(l.ID) {
				return false
			}
			if _, ok := ids[l.Src]; !ok {
				return false
			}
			if _, ok := ids[l.Tgt]; !ok {
				return false
			}
		}
		// Maximality: any g link with both endpoints selected must be in sub.
		for _, l := range g.Links() {
			_, sOK := ids[l.Src]
			_, tOK := ids[l.Tgt]
			if sOK && tOK && !sub.HasLink(l.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickReachableClosedUnderNeighbors(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 25)
		start := g.NodeIDs()[0]
		r := g.Reachable(start)
		for id := range r {
			for _, nb := range g.Neighbors(id) {
				if _, ok := r[nb]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickComponentsPartitionNodes(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 18, 12)
		comps := g.ConnectedComponents()
		seen := make(map[NodeID]int)
		total := 0
		for _, c := range comps {
			total += len(c)
			for _, id := range c {
				seen[id]++
			}
		}
		if total != g.NumNodes() {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
