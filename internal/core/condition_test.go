package core

import (
	"fmt"
	"testing"

	"socialscope/internal/graph"
)

func TestStructCondTypeSuperset(t *testing.T) {
	f := travelFixture(t)
	john := f.g.Node(f.john)
	if !Cond("type", "user").matcher().satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user should match John")
	}
	if !Cond("type", "user", "traveler").matcher().satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user,traveler should match John (superset rule)")
	}
	if Cond("type", "user", "expert").matcher().satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type=user,expert should not match John")
	}
	if !CondOp("type", Ne, "item").matcher().satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("type!=item should match John")
	}
}

func TestStructCondID(t *testing.T) {
	f := travelFixture(t)
	john := f.g.Node(f.john)
	if !Cond("id", "101").matcher().satisfies(int64(john.ID), john.Types, john.Attrs) {
		t.Error("id=101 should match John")
	}
	if !CondOp("id", Ne, "101").matcher().satisfies(102, nil, nil) {
		t.Error("id!=101 should match 102")
	}
	if CondOp("id", Ne, "101").matcher().satisfies(101, nil, nil) {
		t.Error("id!=101 should not match 101")
	}
	if !CondOp("id", Ge, "200").matcher().satisfies(201, nil, nil) {
		t.Error("id>=200 should match 201")
	}
	if CondOp("id", Lt, "200").matcher().satisfies(201, nil, nil) {
		t.Error("id<200 should not match 201")
	}
	if CondOp("id", Ge, "not-a-number").matcher().satisfies(201, nil, nil) {
		t.Error("malformed numeric comparison should be false")
	}
}

func TestStructCondNumericAttr(t *testing.T) {
	f := travelFixture(t)
	coors := f.g.Node(f.coors) // rating 0.9
	for _, c := range []struct {
		cond StructCond
		want bool
	}{
		{CondOp("rating", Ge, "0.5"), true},
		{CondOp("rating", Gt, "0.9"), false},
		{CondOp("rating", Ge, "0.9"), true},
		{CondOp("rating", Le, "1.0"), true},
		{CondOp("rating", Lt, "0.9"), false},
		{CondOp("missing", Ge, "0"), false},
		{CondOp("name", Ge, "1"), false}, // non-numeric attr
	} {
		if got := c.cond.matcher().satisfies(int64(coors.ID), coors.Types, coors.Attrs); got != c.want {
			t.Errorf("%v on Coors = %v, want %v", c.cond, got, c.want)
		}
	}
}

func TestStructCondAttrEquality(t *testing.T) {
	f := travelFixture(t)
	coors := f.g.Node(f.coors)
	if !Cond("city", "Denver").matcher().satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city=Denver should match")
	}
	if Cond("city", "Paris").matcher().satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city=Paris should not match")
	}
	if !CondOp("city", Ne, "Paris").matcher().satisfies(int64(coors.ID), coors.Types, coors.Attrs) {
		t.Error("city!=Paris should match")
	}
}

func TestConditionConjunction(t *testing.T) {
	f := travelFixture(t)
	c := NewCondition(Cond("type", "destination"), Cond("city", "Denver"))
	if !c.SatisfiedByNode(f.g.Node(f.coors)) {
		t.Error("Coors should satisfy destination ∧ Denver")
	}
	if c.SatisfiedByNode(f.g.Node(f.gate)) {
		t.Error("Golden Gate should not satisfy Denver")
	}
	if c.SatisfiedByNode(f.g.Node(f.john)) {
		t.Error("John should not satisfy destination")
	}
}

func TestConditionOnLinks(t *testing.T) {
	f := travelFixture(t)
	c := NewCondition(Cond("type", graph.SubtypeVisit))
	if !c.SatisfiedByLink(f.g.Link(f.vAnnCoors)) {
		t.Error("visit link should satisfy type=visit")
	}
	if c.SatisfiedByLink(f.g.Link(f.fJohnAnn)) {
		t.Error("friend link should not satisfy type=visit")
	}
}

func TestConditionEmptyAndString(t *testing.T) {
	c := Condition{}
	if !c.IsEmpty() {
		t.Error("empty condition should report empty")
	}
	c2 := NewCondition(Cond("type", "city")).WithKeywords("Denver attractions")
	if c2.IsEmpty() {
		t.Error("non-empty condition reported empty")
	}
	want := "{type=city, 'denver attractions'}"
	if got := c2.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := CondOp("rating", Ge, "0.5").String(); got != "rating>=0.5" {
		t.Errorf("StructCond String = %q", got)
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{Eq: "=", Ne: "!=", Gt: ">", Ge: ">=", Lt: "<", Le: "<="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "?" {
		t.Error("unknown op should render ?")
	}
}

// perElementSatisfies is the evaluation structMatcher replaces: it parses
// the operand once per element. It stays as the reference the compiled
// form is checked against.
func perElementSatisfies(sc StructCond, id int64, attrs graph.Attrs) bool {
	if sc.Attr == "id" {
		if len(sc.Values) == 0 {
			return sc.Op != Ne
		}
		match := false
		for _, v := range sc.Values {
			if v == fmt.Sprintf("%d", id) {
				match = true
			}
		}
		switch sc.Op {
		case Eq:
			return match
		case Ne:
			return !match
		}
		var want int64
		if _, err := fmt.Sscanf(sc.Values[0], "%d", &want); err != nil {
			return false
		}
		return compareOrdered(sc.Op, float64(id), float64(want))
	}
	switch sc.Op {
	case Eq:
		return attrs.Superset(sc.Attr, sc.Values)
	case Ne:
		return !attrs.Superset(sc.Attr, sc.Values)
	}
	have, ok := attrs.Float(sc.Attr)
	if !ok || len(sc.Values) == 0 {
		return false
	}
	var want float64
	if _, err := fmt.Sscanf(sc.Values[0], "%g", &want); err != nil {
		return false
	}
	return compareOrdered(sc.Op, have, want)
}

func TestStructCondOperandParsedOnce(t *testing.T) {
	attrs := graph.NewAttrs("rating", "0.5")
	for _, c := range []struct {
		cond StructCond
		id   int64
		want bool
	}{
		// %g reads the longest numeric prefix and skips leading spaces.
		{CondOp("rating", Ge, "0.5x"), 0, true},
		{CondOp("rating", Gt, "0.5x"), 0, false},
		{CondOp("rating", Ge, " 0.5"), 0, true},
		{CondOp("rating", Gt, "1e-1"), 0, true},
		{CondOp("rating", Lt, "1e-1"), 0, false},
		{CondOp("rating", Ge, "abc"), 0, false},
		{CondOp("rating", Le, "abc"), 0, false},
		{CondOp("rating", Ge), 0, false},
		// id= compares the printed id, so leading zeros never match, but
		// the ordered comparisons parse them as decimal.
		{Cond("id", "007"), 7, false},
		{CondOp("id", Ne, "007"), 7, true},
		{Cond("id", "9", "7"), 7, true},
		{CondOp("id", Ge, "007"), 7, true},
		{CondOp("id", Gt, "007"), 7, false},
		{CondOp("id", Le, "1e-1"), 1, true}, // %d reads the 1 of 1e-1
		{CondOp("id", Ge, "abc"), 7, false},
		{CondOp("id", Ge), 7, true},
		{CondOp("id", Ne), 7, false},
	} {
		m := c.cond.matcher()
		if got := m.satisfies(c.id, nil, attrs); got != c.want {
			t.Errorf("%v on id %d = %v, want %v", c.cond, c.id, got, c.want)
		}
		for id := int64(-2); id <= 12; id++ {
			if got, ref := m.satisfies(id, nil, attrs), perElementSatisfies(c.cond, id, attrs); got != ref {
				t.Errorf("%v on id %d = %v, per-element evaluation says %v", c.cond, id, got, ref)
			}
		}
	}
}

// A ColumnCond accepts exactly the nodes the row matcher accepts: a
// type-set test against the node's types, an ordered one against its
// attribute's Float value (absent fails), every operator on every kind of
// operand, including ones that do not parse.
func TestColumnCondMatchesRowMatcher(t *testing.T) {
	values := []string{"0.5", "1", "-2", "NaN", "+Inf", "-Inf", "1e309", "0x1p-1", ".5", "", "x", "0.5x"}
	var nodes []*graph.Node
	for i, v := range values {
		n := graph.NewNode(graph.NodeID(i+1), "item", []string{"city", "user"}[i%2])
		n.Attrs.Add("rating", v)
		if i%3 == 0 {
			n.Attrs.Add("rating", "0.7") // multi-valued: the first value counts
		}
		nodes = append(nodes, n, graph.NewNode(graph.NodeID(100+i), "item"))
	}
	ops := []Op{Eq, Ne, Gt, Ge, Lt, Le}
	var conds []StructCond
	for _, op := range ops {
		conds = append(conds, CondOp("type", op), CondOp("type", op, "item", "city"), CondOp("type", op, "none"),
			CondOp("rating", op), CondOp("id", op, "3"))
		for _, v := range values {
			conds = append(conds, CondOp("rating", op, v), CondOp("absent", op, v))
		}
	}
	columns := 0
	for _, sc := range conds {
		cc, ok := sc.Column()
		if !ok {
			continue
		}
		columns++
		for _, n := range nodes {
			var got bool
			if cc.TypeSet {
				got = n.TypeSuperset(cc.Types)
			} else {
				v, present := n.Attrs.Float(cc.Attr)
				got = present && cc.Holds(v)
			}
			if want := NewCondition(sc).SatisfiedByNode(n); got != want {
				t.Errorf("%v on node %d %v: column %v, row matcher %v", sc, n.ID, n.Attrs, got, want)
			}
		}
	}
	if columns < len(conds)/2 {
		t.Errorf("only %d of %d conditions compile to columns", columns, len(conds))
	}
}
