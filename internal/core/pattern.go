package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"socialscope/internal/graph"
)

// PatternStep is one hop of a graph pattern: a condition on the traversed
// link and an optional condition on the node reached after the hop.
type PatternStep struct {
	Link Condition
	Node Condition
}

// Pattern is the paper's graph pattern (Figure 2): a start-node condition
// followed by a chain of link/node conditions. The Figure 2 pattern —
// $1 --match--> $2 --visit--> $3 with $1.id=101 and $3.type=destination —
// is expressed as:
//
//	Pattern{
//	    Start: NewCondition(Cond("id", "101")),
//	    Steps: []PatternStep{
//	        {Link: NewCondition(Cond("type", "match"))},
//	        {Link: NewCondition(Cond("type", "visit")),
//	         Node: NewCondition(Cond("type", "destination"))},
//	    },
//	}
type Pattern struct {
	Start Condition
	Steps []PatternStep
}

// String renders the pattern as $1 -c1-> $2 -c2-> ... .
func (p Pattern) String() string {
	var sb strings.Builder
	sb.WriteString("$1")
	if !p.Start.IsEmpty() {
		sb.WriteString(p.Start.String())
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&sb, " -%s-> $%d", s.Link.String(), i+2)
		if !s.Node.IsEmpty() {
			sb.WriteString(s.Node.String())
		}
	}
	return sb.String()
}

// PathAggregator maps the set of pattern paths between one (start, end)
// node pair to the destination attribute's values — the A of a
// pattern-based γL.
type PathAggregator interface {
	AggregatePaths(paths []graph.Path) []string
	String() string
}

// avgPathAttr averages a numeric attribute of the link at a fixed step
// across all paths of the group — Figure 2's score, "computed as the
// average value of sim_sc on the match link of the set of match-visit
// paths".
type avgPathAttr struct {
	step int
	attr string
}

// AvgPathAttr returns the path aggregator that averages attr on the link at
// position step.
func AvgPathAttr(step int, attr string) PathAggregator { return avgPathAttr{step, attr} }

func (a avgPathAttr) AggregatePaths(paths []graph.Path) []string {
	var sum float64
	n := 0
	for _, p := range paths {
		if a.step >= len(p) {
			continue
		}
		if v, ok := p[a.step].Attrs().Float(a.attr); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return []string{"0"}
	}
	return []string{strconv.FormatFloat(sum/float64(n), 'g', -1, 64)}
}

func (a avgPathAttr) String() string { return fmt.Sprintf("avg(step%d.%s)", a.step, a.attr) }

// countPaths counts the matching paths per (start, end) pair.
type countPaths struct{}

// CountPaths returns the path aggregator counting paths per endpoint pair.
func CountPaths() PathAggregator { return countPaths{} }

func (countPaths) AggregatePaths(paths []graph.Path) []string {
	return []string{strconv.Itoa(len(paths))}
}
func (countPaths) String() string { return "countPaths" }

// PatternAggregate implements the graph-pattern form of link aggregation
// sketched at the end of Section 5.4: γL⟨GP,att,A⟩(G). For every node
// matching the pattern's start condition and every node reachable from it
// by a path matching the pattern's steps, it creates exactly one new link
// start→end carrying att = A(paths between the pair). The output graph
// contains the new links and their endpoints (the same null-graph
// convention as composition); fresh ids come from ids.
func PatternAggregate(g *graph.Graph, p Pattern, att string, a PathAggregator, ids *graph.IDSource) (*graph.Graph, error) {
	if a == nil {
		return nil, fmt.Errorf("core: PatternAggregate requires a path aggregator")
	}
	if ids == nil {
		return nil, fmt.Errorf("core: PatternAggregate requires an id source")
	}
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("core: PatternAggregate requires at least one step")
	}
	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	startM := p.Start.matcher()
	linkM := make([]matcher, len(p.Steps))
	nodeM := make([]matcher, len(p.Steps))
	for i, st := range p.Steps {
		linkM[i], nodeM[i] = st.Link.matcher(), st.Node.matcher()
	}
	for _, start := range g.Nodes() {
		if !startM.node(start) {
			continue
		}
		paths := g.PathsMatching(start.ID, len(p.Steps), func(step int, l *graph.Link) bool {
			if !linkM[step].link(l) {
				return false
			}
			if !p.Steps[step].Node.IsEmpty() {
				end := g.Node(l.Tgt)
				if end == nil || !nodeM[step].node(end) {
					return false
				}
			}
			return true
		})
		if len(paths) == 0 {
			continue
		}
		byEnd := make(map[graph.NodeID][]graph.Path)
		for _, path := range paths {
			byEnd[path.Last()] = append(byEnd[path.Last()], path)
		}
		ends := make([]graph.NodeID, 0, len(byEnd))
		for end := range byEnd {
			ends = append(ends, end)
		}
		sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
		if !out.HasNode(start.ID) {
			out.PutNode(start)
		}
		for _, end := range ends {
			values := a.AggregatePaths(byEnd[end])
			if !out.HasNode(end) {
				out.PutNode(g.Node(end))
			}
			var nl *graph.Link
			if att == "type" {
				nl = graph.NewLink(ids.NextLink(), start.ID, end, values...)
			} else {
				nl = graph.NewLink(ids.NextLink(), start.ID, end)
				nl.SetAttr(att, values...)
			}
			if err := out.AddLink(nl); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
