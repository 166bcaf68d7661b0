package core

import (
	"fmt"
	"sort"

	"socialscope/internal/graph"
)

// NodeAggregate implements γN⟨C,d,att,A⟩(G) (Definition 9): the output is
// isomorphic to G, and every node v that anchors at least one link
// satisfying C at its d end receives att = A({l | l satisfies C, l.d = v}).
// The directionality parameter d acts as the group-by: d=Src groups a
// node's outgoing links, d=Tgt its incoming links. When att is "type", the
// aggregated values extend the node's type set.
func NodeAggregate(g *graph.Graph, c Condition, d graph.Direction, att string, a Aggregator) (*graph.Graph, error) {
	if a == nil {
		return nil, fmt.Errorf("core: NodeAggregate requires an aggregation function")
	}
	out := g.Clone()
	groups := make(map[graph.NodeID][]*graph.Link)
	m := c.matcher()
	for _, l := range out.Links() {
		if m.link(l) {
			v := l.End(d)
			groups[v] = append(groups[v], l)
		}
	}
	for v, ls := range groups {
		values := a.Aggregate(ls)
		node := out.Node(v)
		if att == "type" {
			for _, t := range values {
				node.AddType(t)
			}
			continue
		}
		node.Attrs.Set(att, values...)
	}
	return out, nil
}

// LinkAggregateOption customizes LinkAggregate beyond the paper's
// signature.
type LinkAggregateOption func(*linkAggConfig)

type linkAggConfig struct {
	carry []string
}

// WithCarry copies the named attributes from one input link of each group
// onto the aggregated link. Example 5 step 6 relies on this ("retains the
// value of sim from any of the input links" — well defined because the
// value is constant within a group).
func WithCarry(attrs ...string) LinkAggregateOption {
	return func(c *linkAggConfig) { c.carry = append(c.carry, attrs...) }
}

// LinkAggregate implements γL⟨C,att,A⟩(G) (Definition 10):
//
//  1. partition the links satisfying C on (src, tgt);
//  2. replace each group L(s,t) with a single fresh link s→t;
//  3. attach att = A(L(s,t)) to the new link.
//
// Links not satisfying C pass through unchanged, as do all nodes. When att
// is "type", the aggregated values become the new link's type set. Fresh
// link ids come from ids.
func LinkAggregate(g *graph.Graph, c Condition, att string, a Aggregator, ids *graph.IDSource, opts ...LinkAggregateOption) (*graph.Graph, error) {
	if a == nil {
		return nil, fmt.Errorf("core: LinkAggregate requires an aggregation function")
	}
	if ids == nil {
		return nil, fmt.Errorf("core: LinkAggregate requires an id source")
	}
	var cfg linkAggConfig
	for _, o := range opts {
		o(&cfg)
	}

	out := graph.New()
	out.BeginBulk()
	defer out.EndBulk()
	for _, n := range g.Nodes() {
		out.PutNode(n)
	}
	type pair struct{ s, t graph.NodeID }
	groups := make(map[pair][]*graph.Link)
	var order []pair // deterministic group emission order
	m := c.matcher()
	for _, l := range g.Links() {
		if !m.link(l) {
			if err := out.AddLink(l); err != nil {
				return nil, err
			}
			continue
		}
		p := pair{l.Src, l.Tgt}
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], l)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].s != order[j].s {
			return order[i].s < order[j].s
		}
		return order[i].t < order[j].t
	})
	for _, p := range order {
		ls := groups[p]
		values := a.Aggregate(ls)
		var nl *graph.Link
		if att == "type" {
			nl = graph.NewLink(ids.NextLink(), p.s, p.t, values...)
		} else {
			nl = graph.NewLink(ids.NextLink(), p.s, p.t)
			nl.SetAttr(att, values...)
		}
		for _, k := range cfg.carry {
			if vs := ls[0].Attrs().All(k); len(vs) > 0 {
				nl.SetAttr(k, vs...)
			}
		}
		if err := out.AddLink(nl); err != nil {
			return nil, err
		}
	}
	return out, nil
}
