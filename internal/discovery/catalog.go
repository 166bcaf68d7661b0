package discovery

import (
	"math/bits"
	"slices"

	"socialscope/internal/core"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// catalog is the fusion path's item table, built once per corpus: every
// node carrying the discoverer's item type or graph.TypeItem, in ascending
// id order, stored a column at a time — each entry's node, a membership
// bitmap per type, a parsed column per numeric attribute, each term's
// postings over the entries' tokenized text and each entry's BM25 length
// norm — plus the BM25 statistics over the entries carrying the item type.
// The scope, the semantic leg, the friends' relevance test and the expert
// scan all read it, so no query tokenizes an item, looks one up in the
// graph or parses an attribute. It is immutable once built.
type catalog struct {
	corpus *scoring.Corpus
	ids    []graph.NodeID
	nodes  []*graph.Node
	// types holds, per type, the entries carrying it.
	types map[string]bitmap
	// nums holds, per attribute, the entries' values as graph.Attrs.Float
	// reads them; present marks the entries where it reads one.
	nums map[string]numColumn
	// postings holds, per term, the entries holding it in ascending
	// position order, each with the term's count there.
	postings map[string][]posting
	// norm is each entry's scoring.Corpus.LengthNorm.
	norm []float64
}

type numColumn struct {
	vals    []float64
	present bitmap
}

type posting struct{ pos, tf int32 }

func newCatalog(g *graph.Graph, itemType string) *catalog {
	c := &catalog{
		corpus:   scoring.NewCorpus(),
		types:    make(map[string]bitmap),
		nums:     make(map[string]numColumn),
		postings: make(map[string][]posting),
	}
	var lens []int
	for _, n := range g.Nodes() {
		typed, generic := n.HasType(itemType), n.HasType(graph.TypeItem)
		if !typed && !generic {
			continue
		}
		d := scoring.NewDoc(n.Text())
		if typed {
			c.corpus.Add(d)
		}
		pos := int32(len(c.ids))
		for t, tf := range d.Terms() {
			c.postings[t] = append(c.postings[t], posting{pos, int32(tf)})
		}
		lens = append(lens, d.Len())
		c.ids = append(c.ids, n.ID)
		c.nodes = append(c.nodes, n)
	}
	size := len(c.ids)
	c.norm = make([]float64, size)
	for p, l := range lens {
		c.norm[p] = c.corpus.LengthNorm(l)
	}
	for p, n := range c.nodes {
		for _, t := range n.Types {
			if c.types[t] == nil {
				c.types[t] = newBitmap(size)
			}
			c.types[t].set(p)
		}
		for _, at := range n.Attrs {
			v, ok := n.Attrs.Float(at.Key)
			if !ok {
				continue
			}
			col, seen := c.nums[at.Key]
			if !seen {
				col = numColumn{vals: make([]float64, size), present: newBitmap(size)}
				c.nums[at.Key] = col
			}
			col.vals[p] = v
			col.present.set(p)
		}
	}
	return c
}

// scope returns the ascending positions of the entries carrying typ that
// satisfy every condition. Type-set and parsable ordered conditions are
// passes over the type bitmaps and numeric columns; the rest run the row
// matcher on the entries those passes keep.
func (c *catalog) scope(typ string, conds []core.StructCond) []int32 {
	in := slices.Clone(c.types[typ])
	var rest []core.StructCond
	for _, sc := range conds {
		cc, ok := sc.Column()
		switch {
		case !ok:
			rest = append(rest, sc)
		case cc.TypeSet:
			for _, t := range cc.Types {
				in.and(c.types[t])
			}
		default:
			col := c.nums[cc.Attr]
			in.and(col.present)
			in.keep(func(p int) bool { return cc.Holds(col.vals[p]) })
		}
	}
	if len(rest) > 0 {
		match := core.Condition{Structural: rest}.NodeMatcher()
		in.keep(func(p int) bool { return match(c.nodes[p]) })
	}
	return in.positions()
}

// bm25 returns the BM25 score of each scoped entry against keywords:
// scoring.Corpus.BM25Doc's sum, accumulated a term at a time in query
// order over the term's postings.
func (c *catalog) bm25(keywords []string, scope []int32) []float64 {
	sem := make([]float64, len(scope))
	for _, kw := range keywords {
		ps := c.postings[kw]
		if len(ps) == 0 {
			continue
		}
		idf := c.corpus.IDF(kw)
		i := 0
		for _, p := range ps {
			for i < len(scope) && scope[i] < p.pos {
				i++
			}
			if i == len(scope) {
				break
			}
			if scope[i] == p.pos {
				sem[i] += scoring.BM25Term(idf, int(p.tf), c.norm[p.pos])
			}
		}
	}
	return sem
}

// hits returns, per entry, how many of keywords (counted with their
// repeats) its text holds: scoring.DefaultScoreDoc's numerator.
func (c *catalog) hits(keywords []string) []int32 {
	h := make([]int32, len(c.ids))
	for _, kw := range keywords {
		for _, p := range c.postings[kw] {
			h[p.pos]++
		}
	}
	return h
}

// coverage is scoring.DefaultScoreDoc of keywords against node id's text,
// read from hits for an entry and tokenized afresh for a node outside the
// catalog (an act onto a non-item node).
func (c *catalog) coverage(g *graph.Graph, keywords []string, hits []int32, id graph.NodeID) float64 {
	if p, ok := slices.BinarySearch(c.ids, id); ok {
		return scoring.Coverage(int(hits[p]), len(keywords))
	}
	if n := g.Node(id); n != nil {
		return scoring.DefaultScoreDoc(keywords, scoring.NewDoc(n.Text()))
	}
	return 0
}

// experts returns up to n users other than exclude, ranked by how many
// act links they have onto the graph.TypeItem entries matching every one
// of keywords (non-empty, hits its per-entry counts), most first, ties by
// ascending id. Parallel links each count. One pass collects the links'
// sources and userCounter tallies them; the best n are kept by bounded
// selection, and a source's user type is checked only when it would be
// kept.
func (c *catalog) experts(g *graph.Graph, keywords []string, hits []int32, n int, exclude graph.NodeID) []graph.NodeID {
	generic := c.types[graph.TypeItem]
	ct := counterPool.Get().(*userCounter)
	defer counterPool.Put(ct)
	srcs := ct.ids[:0]
	// An entry matching every keyword holds the first.
	for _, p := range c.postings[keywords[0]] {
		if scoring.Coverage(int(hits[p.pos]), len(keywords)) != 1 || !generic.has(int(p.pos)) {
			continue
		}
		for _, l := range g.In(c.ids[p.pos]) {
			if l.HasType(graph.TypeAct) && l.Src != exclude {
				srcs = append(srcs, l.Src)
			}
		}
	}
	counts := ct.count(srcs)
	best := make([]RelatedUser, 0, min(n, len(counts)))
	for _, u := range counts {
		if admits(best, n, u) && g.Node(u.User).HasType(graph.TypeUser) {
			best = insertBest(best, n, u)
		}
	}
	out := make([]graph.NodeID, len(best))
	for i, u := range best {
		out[i] = u.User
	}
	return out
}

// bitmap is a set of catalog positions, one bit each.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) set(p int)      { b[p/64] |= 1 << (p % 64) }
func (b bitmap) has(p int) bool { return p/64 < len(b) && b[p/64]&(1<<(p%64)) != 0 }

// and intersects b with o in place; a nil o is the empty set.
func (b bitmap) and(o bitmap) {
	for w := range b {
		if w < len(o) {
			b[w] &= o[w]
		} else {
			b[w] = 0
		}
	}
}

// keep removes from b every position f rejects.
func (b bitmap) keep(f func(p int) bool) {
	for w, word := range b {
		for m := word; m != 0; m &= m - 1 {
			if bit := bits.TrailingZeros64(m); !f(w*64 + bit) {
				b[w] &^= 1 << bit
			}
		}
	}
}

// positions returns b's members in ascending order.
func (b bitmap) positions() []int32 {
	n := 0
	for _, word := range b {
		n += bits.OnesCount64(word)
	}
	out := make([]int32, 0, n)
	for w, word := range b {
		for m := word; m != 0; m &= m - 1 {
			out = append(out, int32(w*64+bits.TrailingZeros64(m)))
		}
	}
	return out
}
