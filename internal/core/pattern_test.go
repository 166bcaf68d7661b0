package core

import (
	"strconv"
	"testing"

	"socialscope/internal/graph"
)

// figure2Fixture: John --match(sim_sc)--> {u2,u3} --visit--> destinations.
// John to d1 via two paths (sim 0.8 through u2, 0.6 through u3), to d2 via
// one path (0.8 through u2).
func figure2Fixture(t testing.TB) (*graph.Graph, graph.NodeID, graph.NodeID, graph.NodeID) {
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser}, "name", "John")
	u2 := b.Node([]string{graph.TypeUser})
	u3 := b.Node([]string{graph.TypeUser})
	d1 := b.Node([]string{graph.TypeItem, "destination"}, "name", "d1")
	d2 := b.Node([]string{graph.TypeItem, "destination"}, "name", "d2")
	b.Link(john, u2, []string{graph.TypeMatch}, "sim_sc", "0.8")
	b.Link(john, u3, []string{graph.TypeMatch}, "sim_sc", "0.6")
	b.Link(u2, d1, []string{graph.SubtypeVisit})
	b.Link(u2, d2, []string{graph.SubtypeVisit})
	b.Link(u3, d1, []string{graph.SubtypeVisit})
	return b.Graph(), john, d1, d2
}

func figure2Pattern(johnID graph.NodeID) Pattern {
	return Pattern{
		Start: NewCondition(Cond("id", idStr(johnID))),
		Steps: []PatternStep{
			{Link: NewCondition(Cond("type", graph.TypeMatch))},
			{Link: NewCondition(Cond("type", graph.SubtypeVisit)),
				Node: NewCondition(Cond("type", "destination"))},
		},
	}
}

func idStr(id graph.NodeID) string { return strconv.FormatInt(int64(id), 10) }

func TestPatternAggregateFigure2(t *testing.T) {
	g, john, d1, d2 := figure2Fixture(t)
	p := figure2Pattern(john)
	got, err := PatternAggregate(g, p, "score", AvgPathAttr(0, "sim_sc"), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one link per reachable destination.
	if got.NumLinks() != 2 {
		t.Fatalf("pattern links = %d, want 2", got.NumLinks())
	}
	var toD1, toD2 *graph.Link
	for _, l := range got.Links() {
		if l.Src != john {
			t.Errorf("pattern link source = %d, want John", l.Src)
		}
		switch l.Tgt {
		case d1:
			toD1 = l
		case d2:
			toD2 = l
		}
	}
	if toD1 == nil || toD2 == nil {
		t.Fatal("missing destination links")
	}
	// d1: average of {0.8, 0.6} = 0.7; d2: 0.8.
	if v, _ := toD1.Attrs().Float("score"); v < 0.699 || v > 0.701 {
		t.Errorf("d1 score = %v, want 0.7", toD1.Attrs().Get("score"))
	}
	if v, _ := toD2.Attrs().Float("score"); v != 0.8 {
		t.Errorf("d2 score = %v, want 0.8", toD2.Attrs().Get("score"))
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestPatternAggregateNodeConditionFilters(t *testing.T) {
	g, john, _, _ := figure2Fixture(t)
	// Require an impossible end-node type: no links.
	p := figure2Pattern(john)
	p.Steps[1].Node = NewCondition(Cond("type", "no-such-type"))
	got, err := PatternAggregate(g, p, "score", CountPaths(), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLinks() != 0 {
		t.Errorf("links = %d, want 0", got.NumLinks())
	}
}

func TestPatternAggregateCountPaths(t *testing.T) {
	g, john, d1, _ := figure2Fixture(t)
	got, err := PatternAggregate(g, figure2Pattern(john), "paths", CountPaths(), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range got.Links() {
		want := int64(1)
		if l.Tgt == d1 {
			want = 2
		}
		if v, _ := l.Attrs().Int("paths"); v != want {
			t.Errorf("paths to %d = %d, want %d", l.Tgt, v, want)
		}
	}
}

func TestPatternAggregateErrors(t *testing.T) {
	g, john, _, _ := figure2Fixture(t)
	p := figure2Pattern(john)
	if _, err := PatternAggregate(g, p, "s", nil, graph.IDSourceFor(g)); err == nil {
		t.Error("nil aggregator should be rejected")
	}
	if _, err := PatternAggregate(g, p, "s", CountPaths(), nil); err == nil {
		t.Error("nil id source should be rejected")
	}
	if _, err := PatternAggregate(g, Pattern{Start: p.Start}, "s", CountPaths(), graph.IDSourceFor(g)); err == nil {
		t.Error("empty pattern should be rejected")
	}
}

func TestPatternString(t *testing.T) {
	_, john, _, _ := figure2Fixture(t)
	s := figure2Pattern(john).String()
	if s == "" || s[0] != '$' {
		t.Errorf("pattern String = %q", s)
	}
}

func TestAvgPathAttrEmptyAndMissing(t *testing.T) {
	if got := AvgPathAttr(0, "x").AggregatePaths(nil); got[0] != "0" {
		t.Errorf("empty avg = %v", got)
	}
	// Paths whose step lacks the attribute are skipped.
	l := graph.NewLink(1, 1, 2, "t")
	if got := AvgPathAttr(5, "x").AggregatePaths([]graph.Path{{l}}); got[0] != "0" {
		t.Errorf("out-of-range step avg = %v", got)
	}
	if AvgPathAttr(0, "w").String() == "" || CountPaths().String() == "" {
		t.Error("String should be non-empty")
	}
}
