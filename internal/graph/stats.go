package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a social content graph for reporting and for the Data
// Manager's refresh decisions (Section 6).
type Stats struct {
	Nodes         int
	Links         int
	NodesByType   map[string]int
	LinksByType   map[string]int
	MaxOutDegree  int
	MaxInDegree   int
	AvgOutDegree  float64
	IsolatedNodes int
	Components    int
}

// ComputeStats walks the graph once (plus a component pass) and returns its
// summary.
func (g *Graph) ComputeStats() Stats {
	s := Stats{
		Nodes:       g.NumNodes(),
		Links:       g.NumLinks(),
		NodesByType: make(map[string]int),
		LinksByType: make(map[string]int),
	}
	g.nodes.Range(func(_ NodeID, n *Node) bool {
		for _, t := range n.Types {
			s.NodesByType[t]++
		}
		od, id := g.OutDegree(n.ID), g.InDegree(n.ID)
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if id > s.MaxInDegree {
			s.MaxInDegree = id
		}
		if od+id == 0 {
			s.IsolatedNodes++
		}
		return true
	})
	g.links.Range(func(_ LinkID, l *Link) bool {
		for _, t := range l.Types() {
			s.LinksByType[t]++
		}
		return true
	})
	if s.Nodes > 0 {
		s.AvgOutDegree = float64(s.Links) / float64(s.Nodes)
	}
	s.Components = len(g.ConnectedComponents())
	return s
}

// CountNodes returns how many nodes carry the given type.
func (g *Graph) CountNodes(nodeType string) int {
	n := 0
	g.nodes.Range(func(_ NodeID, nd *Node) bool {
		if nd.HasType(nodeType) {
			n++
		}
		return true
	})
	return n
}

// CountLinks returns how many links carry the given type.
func (g *Graph) CountLinks(linkType string) int {
	n := 0
	g.links.Range(func(_ LinkID, l *Link) bool {
		if l.HasType(linkType) {
			n++
		}
		return true
	})
	return n
}

// NodesOfType returns the nodes carrying the given type, ordered by id.
func (g *Graph) NodesOfType(nodeType string) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		if n.HasType(nodeType) {
			out = append(out, n)
		}
	}
	return out
}

// LinksOfType returns the links carrying the given type, ordered by id.
func (g *Graph) LinksOfType(linkType string) []*Link {
	var out []*Link
	for _, l := range g.Links() {
		if l.HasType(linkType) {
			out = append(out, l)
		}
	}
	return out
}

// DegreeHistogram returns (degree -> node count) for total degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	g.nodes.Range(func(id NodeID, _ *Node) bool {
		h[g.OutDegree(id)+g.InDegree(id)]++
		return true
	})
	return h
}

// String renders the stats as a small report.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes=%d links=%d components=%d isolated=%d maxOut=%d maxIn=%d avgOut=%.2f\n",
		s.Nodes, s.Links, s.Components, s.IsolatedNodes, s.MaxOutDegree, s.MaxInDegree, s.AvgOutDegree)
	sb.WriteString("node types:")
	for _, t := range sortedKeys(s.NodesByType) {
		fmt.Fprintf(&sb, " %s=%d", t, s.NodesByType[t])
	}
	sb.WriteString("\nlink types:")
	for _, t := range sortedKeys(s.LinksByType) {
		fmt.Fprintf(&sb, " %s=%d", t, s.LinksByType[t])
	}
	return sb.String()
}

func sortedKeys(m map[string]int) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
