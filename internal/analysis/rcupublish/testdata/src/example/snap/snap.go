// Golden accessor package: the //ss:immutable annotations here feed
// the cross-package registry that rcupublish enforces in consumers.
package snap

type Link struct {
	To    string
	Score float64
	Attrs *Attrs
}

// Clone returns a private copy callers may mutate.
func (l *Link) Clone() *Link { c := *l; return &c }

// AddType appends a type to the link in place.
func (l *Link) AddType(t string) { l.To += t }

type Attrs struct{ m map[string]int }

func (a *Attrs) Add(k string)           { a.m[k]++ }
func (a *Attrs) Set(k string, v int)    { a.m[k] = v }
func (a *Attrs) SetInt(k string, v int) { a.m[k] = v }

// Edge keeps its attributes and types behind accessors and mutators, as
// graph.Link keeps them in a body it may share.
type Edge struct {
	attrs *Attrs
	types []string
	score float64
}

// Clone returns a private copy callers may mutate.
func (e *Edge) Clone() *Edge { c := *e; return &c }

func (e *Edge) Attrs() *Attrs                    { return e.attrs }
func (e *Edge) Types() []string                  { return e.types }
func (e *Edge) SetAttr(k string, v int)          { e.attrs.Set(k, v) }
func (e *Edge) SetAttrs(a *Attrs)                { e.attrs = a }
func (e *Edge) AddAttr(k string)                 { e.attrs.Add(k) }
func (e *Edge) SetAttrFloat(k string, v float64) { e.attrs.Set(k, int(v)) }
func (e *Edge) MergeAttrs(a *Attrs)              { e.attrs = a }
func (e *Edge) SetScore(s float64)               { e.score = s }

type Graph struct {
	adj   map[string][]*Link
	edges map[string][]*Edge
}

// Clone returns a deep copy: private links all the way down.
func (g *Graph) Clone() *Graph {
	n := &Graph{adj: map[string][]*Link{}}
	for k, ls := range g.adj {
		for _, l := range ls {
			n.adj[k] = append(n.adj[k], l.Clone())
		}
	}
	return n
}

// Out returns u's live adjacency slice.
//
//ss:immutable — aliases the published snapshot; Clone before mutating.
func (g *Graph) Out(u string) []*Link { return g.adj[u] }

// Edges returns u's live edges.
//
//ss:immutable
func (g *Graph) Edges(u string) []*Edge { return g.edges[u] }

// In returns u's live reverse-adjacency slice.
//
//ss:immutable
func (g *Graph) In(u string) []*Link { return g.adj[u] }

type Map struct{ leaves map[string]*Attrs }

// At returns the leaf stored for k — shared trie state, not a copy.
//
//ss:immutable
func (m *Map) At(k string) *Attrs { return m.leaves[k] }

// Get is At plus a presence bit.
//
//ss:immutable
func (m *Map) Get(k string) (*Attrs, bool) { a, ok := m.leaves[k]; return a, ok }

// Set is persistent: it returns a new Map and never mutates in place.
func (m *Map) Set(k string, a *Attrs) *Map {
	n := &Map{leaves: map[string]*Attrs{k: a}}
	for kk, vv := range m.leaves {
		if kk != k {
			n.leaves[kk] = vv
		}
	}
	return n
}

// List returns the live posting list for a tag.
//
//ss:immutable
func List(g *Graph, tag string) []*Link { return g.adj[tag] }
