package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// nodeJSON and linkJSON are the wire forms used by Encode/Decode. Scores are
// omitted: persisted site graphs hold raw content; scores are query-time
// artifacts.
type nodeJSON struct {
	ID    NodeID              `json:"id"`
	Types []string            `json:"types"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

type linkJSON struct {
	ID    LinkID              `json:"id"`
	Src   NodeID              `json:"src"`
	Tgt   NodeID              `json:"tgt"`
	Types []string            `json:"types"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

type graphJSON struct {
	Nodes []nodeJSON `json:"nodes"`
	Links []linkJSON `json:"links"`
	// MaxNode and MaxLink persist the id high-water marks, so fresh-id
	// allocation after a decode still never resurrects an id that was
	// retracted before the encode. Absent in older files, in which case
	// the decoded maxima stand in.
	MaxNode NodeID `json:"max_node,omitempty"`
	MaxLink LinkID `json:"max_link,omitempty"`
}

// Encode writes the graph as JSON with deterministic element order.
func (g *Graph) Encode(w io.Writer) error {
	doc := graphJSON{
		Nodes:   make([]nodeJSON, 0, g.NumNodes()),
		Links:   make([]linkJSON, 0, g.NumLinks()),
		MaxNode: g.MaxNodeID(),
		MaxLink: g.MaxLinkID(),
	}
	for _, n := range g.Nodes() {
		doc.Nodes = append(doc.Nodes, nodeJSON{ID: n.ID, Types: n.Types, Attrs: n.Attrs.Map()})
	}
	for _, l := range g.Links() {
		doc.Links = append(doc.Links, linkJSON{ID: l.ID, Src: l.Src, Tgt: l.Tgt, Types: l.Types(), Attrs: l.Attrs().Map()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Decode reads a graph previously written by Encode. Nodes load before
// links so endpoint checks hold; the first malformed element aborts. The
// whole load runs in one bulk-mutation window — a cold load is the purest
// bulk build there is — sealed before the graph is returned.
func Decode(r io.Reader) (*Graph, error) {
	var doc graphJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	g := New()
	g.BeginBulk()
	defer g.EndBulk()
	for _, nj := range doc.Nodes {
		n := NewNode(nj.ID, nj.Types...)
		if nj.Attrs != nil {
			n.Attrs = AttrsFromMap(nj.Attrs)
		}
		if err := g.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, lj := range doc.Links {
		a := Attrs{}
		if lj.Attrs != nil {
			a = AttrsFromMap(lj.Attrs)
		}
		if err := g.AddLink(storedLink(lj.ID, lj.Src, lj.Tgt, lj.Types, a, 0, false)); err != nil {
			return nil, err
		}
	}
	g.noteNodeID(doc.MaxNode)
	g.noteLinkID(doc.MaxLink)
	return g, nil
}

// DOT renders the graph in Graphviz dot syntax for debugging and
// documentation. Node labels show the first type and the name attribute
// when present.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	for _, n := range g.Nodes() {
		label := ""
		if len(n.Types) > 0 {
			label = n.Types[0]
		}
		if nm := n.Attrs.Get("name"); nm != "" {
			label += ":" + nm
		}
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, fmt.Sprintf("%d %s", n.ID, label))
	}
	for _, l := range g.Links() {
		types := slices.Clone(l.Types())
		sort.Strings(types)
		fmt.Fprintf(&sb, "  n%d -> n%d [label=%q];\n", l.Src, l.Tgt, strings.Join(types, ","))
	}
	sb.WriteString("}\n")
	return sb.String()
}
