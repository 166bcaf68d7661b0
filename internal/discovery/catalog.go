package discovery

import (
	"cmp"
	"slices"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// catalog is the fusion path's item table, built once per corpus: every
// node carrying the discoverer's item type or graph.TypeItem, in ascending
// id order, with its searchable text tokenized, plus the BM25 statistics
// over the ones carrying the item type. The scope, the semantic leg, the
// friends' relevance test and the expert scan all read it, so no query
// tokenizes an item. It is immutable once built.
type catalog struct {
	corpus *scoring.Corpus
	ids    []graph.NodeID
	docs   []scoring.Doc
	// generic holds the positions of the entries typed graph.TypeItem, the
	// items the expert fallback draws on whatever the item type.
	generic []int
}

func newCatalog(g *graph.Graph, itemType string) *catalog {
	c := &catalog{corpus: scoring.NewCorpus()}
	for _, n := range g.Nodes() {
		typed, generic := n.HasType(itemType), n.HasType(graph.TypeItem)
		if !typed && !generic {
			continue
		}
		d := scoring.NewDoc(n.Text())
		if typed {
			c.corpus.Add(d)
		}
		if generic {
			c.generic = append(c.generic, len(c.ids))
		}
		c.ids = append(c.ids, n.ID)
		c.docs = append(c.docs, d)
	}
	return c
}

// doc returns node id's tokenized text: the catalog's entry, or a fresh
// tokenization for a node outside it (an act onto a non-item node).
func (c *catalog) doc(g *graph.Graph, id graph.NodeID) scoring.Doc {
	if i, ok := slices.BinarySearch(c.ids, id); ok {
		return c.docs[i]
	}
	if n := g.Node(id); n != nil {
		return scoring.NewDoc(n.Text())
	}
	return scoring.Doc{}
}

// experts returns up to n users other than exclude, ranked by how many
// act links they have onto the graph.TypeItem items matching every
// keyword, most first, ties by ascending id. Parallel links each count.
func (c *catalog) experts(g *graph.Graph, keywords []string, n int, exclude graph.NodeID) []graph.NodeID {
	var srcs []graph.NodeID
	for _, p := range c.generic {
		if scoring.DefaultScoreDoc(keywords, c.docs[p]) != 1 {
			continue
		}
		for _, l := range g.In(c.ids[p]) {
			if l.HasType(graph.TypeAct) && l.Src != exclude && g.Node(l.Src).HasType(graph.TypeUser) {
				srcs = append(srcs, l.Src)
			}
		}
	}
	slices.Sort(srcs)
	type count struct {
		id graph.NodeID
		n  int
	}
	var counts []count
	for i, u := range srcs {
		if i == 0 || u != srcs[i-1] {
			counts = append(counts, count{id: u})
		}
		counts[len(counts)-1].n++
	}
	slices.SortFunc(counts, func(a, b count) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]graph.NodeID, min(n, len(counts)))
	for i := range out {
		out[i] = counts[i].id
	}
	return out
}
