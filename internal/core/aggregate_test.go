package core

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"socialscope/internal/graph"
)

func TestNodeAggregateFriendCount(t *testing.T) {
	f := travelFixture(t)
	// The paper's fnd_cnt example: count outgoing friend links per node.
	got, err := NodeAggregate(f.g, NewCondition(Cond("type", graph.SubtypeFriend)),
		graph.Src, "fnd_cnt", Num(Count()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Node(f.john).Attrs.Int("fnd_cnt"); v != 2 {
		t.Errorf("John fnd_cnt = %d, want 2", v)
	}
	if v, _ := got.Node(f.ann).Attrs.Int("fnd_cnt"); v != 1 {
		t.Errorf("Ann fnd_cnt = %d, want 1", v)
	}
	// Nodes without matching links stay untouched.
	if _, ok := got.Node(f.bob).Attrs.Int("fnd_cnt"); ok {
		t.Error("Bob should have no fnd_cnt")
	}
	// Output is isomorphic: same nodes and links.
	if got.NumNodes() != f.g.NumNodes() || got.NumLinks() != f.g.NumLinks() {
		t.Error("node aggregation changed the graph structure")
	}
	// Input untouched.
	if _, ok := f.g.Node(f.john).Attrs.Int("fnd_cnt"); ok {
		t.Error("node aggregation mutated its input")
	}
}

func TestNodeAggregateCollectTags(t *testing.T) {
	f := travelFixture(t)
	// tags_used: collect all tags assigned by each user.
	got, err := NodeAggregate(f.g, NewCondition(Cond("type", graph.SubtypeTag)),
		graph.Src, "tags_used", Collect("tags"))
	if err != nil {
		t.Fatal(err)
	}
	if tags := got.Node(f.ann).Attrs.All("tags_used"); !reflect.DeepEqual(tags, []string{"baseball"}) {
		t.Errorf("Ann tags_used = %v", tags)
	}
}

func TestNodeAggregateCollectEnd(t *testing.T) {
	f := travelFixture(t)
	// Example 5 step 2: vst = set of destinations visited, grouped on src.
	got, err := NodeAggregate(f.g, NewCondition(Cond("type", graph.SubtypeVisit)),
		graph.Src, "vst", CollectEnd(graph.Tgt))
	if err != nil {
		t.Fatal(err)
	}
	if vst := got.Node(f.ann).Attrs.All("vst"); !reflect.DeepEqual(vst, []string{"201", "202"}) {
		t.Errorf("Ann vst = %v", vst)
	}
	if vst := got.Node(f.john).Attrs.All("vst"); !reflect.DeepEqual(vst, []string{"202"}) {
		t.Errorf("John vst = %v", vst)
	}
}

func TestNodeAggregateGroupByTgt(t *testing.T) {
	f := travelFixture(t)
	// Visitor count per destination: group visit links on their target.
	got, err := NodeAggregate(f.g, NewCondition(Cond("type", graph.SubtypeVisit)),
		graph.Tgt, "visitors", Num(Count()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Node(f.coors).Attrs.Int("visitors"); v != 2 {
		t.Errorf("Coors visitors = %d, want 2 (Ann, Bob)", v)
	}
	if v, _ := got.Node(f.museum).Attrs.Int("visitors"); v != 2 {
		t.Errorf("Museum visitors = %d, want 2 (Ann, John)", v)
	}
}

func TestNodeAggregateTypeDestination(t *testing.T) {
	f := travelFixture(t)
	// Aggregating into the reserved attribute extends the type set.
	got, err := NodeAggregate(f.g, NewCondition(Cond("type", graph.SubtypeVisit)),
		graph.Src, "type", ConstAgg("active"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Node(f.ann).HasType("active") {
		t.Error("Ann should gain type 'active'")
	}
	if got.Node(f.parc).HasType("active") {
		t.Error("Parc has no outgoing visits and should not gain the type")
	}
}

func TestNodeAggregateNilAggregator(t *testing.T) {
	f := travelFixture(t)
	if _, err := NodeAggregate(f.g, Condition{}, graph.Src, "x", nil); err == nil {
		t.Error("nil aggregator should be rejected")
	}
}

func TestLinkAggregateReplacesGroups(t *testing.T) {
	// Two parallel 'user_friend_item' links John→Coors collapse into one
	// with vst_cnt=2 (the Section 5.4 example).
	b := graph.NewBuilder()
	u := b.Node([]string{graph.TypeUser})
	d := b.Node([]string{graph.TypeItem})
	b.Link(u, d, []string{"user_friend_item"})
	b.Link(u, d, []string{"user_friend_item"})
	other := b.Link(u, d, []string{graph.SubtypeVisit}) // does not satisfy C
	g := b.Graph()
	got, err := LinkAggregate(g, NewCondition(Cond("type", "user_friend_item")),
		"vst_cnt", Num(Count()), graph.IDSourceFor(g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLinks() != 2 { // 1 aggregated + 1 passthrough
		t.Fatalf("links = %d, want 2", got.NumLinks())
	}
	if !got.HasLink(other) {
		t.Error("non-matching link must pass through")
	}
	var agg *graph.Link
	for _, l := range got.Links() {
		if l.ID != other {
			agg = l
		}
	}
	if agg == nil {
		t.Fatal("aggregated link missing")
	}
	if v, _ := agg.Attrs().Int("vst_cnt"); v != 2 {
		t.Errorf("vst_cnt = %d, want 2", v)
	}
	if agg.Src != u || agg.Tgt != d {
		t.Error("aggregated link endpoints wrong")
	}
}

func TestLinkAggregateTypeAndCarry(t *testing.T) {
	// Example 5 step 6: replace sim>0.5 link groups with a 'match' link
	// retaining sim.
	b := graph.NewBuilder()
	john := b.Node([]string{graph.TypeUser})
	u := b.Node([]string{graph.TypeUser})
	b.Link(john, u, []string{"simpair"}, "sim", "0.8")
	b.Link(john, u, []string{"simpair"}, "sim", "0.8")
	g := b.Graph()
	got, err := LinkAggregate(g, NewCondition(CondOp("sim", Gt, "0.5")),
		"type", ConstAgg("match"), graph.IDSourceFor(g), WithCarry("sim"))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLinks() != 1 {
		t.Fatalf("links = %d, want 1", got.NumLinks())
	}
	l := got.Links()[0]
	if !l.HasType("match") {
		t.Errorf("types = %v", l.Types())
	}
	if l.Attrs().Get("sim") != "0.8" {
		t.Errorf("sim = %q, want carried 0.8", l.Attrs().Get("sim"))
	}
}

func TestLinkAggregateKeepsAllNodes(t *testing.T) {
	f := travelFixture(t)
	got, err := LinkAggregate(f.g, NewCondition(Cond("type", graph.SubtypeVisit)),
		"n", Num(Count()), graph.IDSourceFor(f.g))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != f.g.NumNodes() {
		t.Error("link aggregation dropped nodes")
	}
	// Each (src,tgt) visit pair is unique in the fixture: 6 aggregated
	// links + 4 non-visit passthroughs.
	if got.NumLinks() != 10 {
		t.Errorf("links = %d, want 10", got.NumLinks())
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestLinkAggregateErrors(t *testing.T) {
	f := travelFixture(t)
	if _, err := LinkAggregate(f.g, Condition{}, "x", nil, graph.IDSourceFor(f.g)); err == nil {
		t.Error("nil aggregator should be rejected")
	}
	if _, err := LinkAggregate(f.g, Condition{}, "x", Num(Count()), nil); err == nil {
		t.Error("nil id source should be rejected")
	}
}

// --- SAF / NAF -------------------------------------------------------------

func mkLinks(vals ...float64) []*graph.Link {
	ls := make([]*graph.Link, len(vals))
	for i, v := range vals {
		l := graph.NewLink(graph.LinkID(i+1), 1, 2, "t")
		l.SetAttrFloat("w", v)
		ls[i] = l
	}
	return ls
}

func TestNAFPrimitives(t *testing.T) {
	ls := mkLinks(1, 2, 3)
	if got := Sum(AttrNum("w")).Eval(ls); got != 6 {
		t.Errorf("Sum = %f", got)
	}
	if got := Product(AttrNum("w")).Eval(ls); got != 6 {
		t.Errorf("Product = %f", got)
	}
	if got := Count().Eval(ls); got != 3 {
		t.Errorf("Count = %f", got)
	}
	if got := Average(AttrNum("w")).Eval(ls); got != 2 {
		t.Errorf("Average = %f", got)
	}
	if got := Average(AttrNum("w")).Eval(nil); got != 0 {
		t.Errorf("Average over empty = %f, want total 0", got)
	}
	if got := MinOf(AttrNum("w")).Eval(ls); got != 1 {
		t.Errorf("Min = %f", got)
	}
	if got := MaxOf(AttrNum("w")).Eval(ls); got != 3 {
		t.Errorf("Max = %f", got)
	}
	if got := MinOf(AttrNum("w")).Eval(nil); got != 0 {
		t.Errorf("Min over empty = %f", got)
	}
}

func TestNAFArithmeticAndClosure(t *testing.T) {
	ls := mkLinks(1, 2, 3)
	// (sum(w) - count) * 2 / count = (6-3)*2/3 = 2
	e := DivN(MulN(SubN(Sum(AttrNum("w")), Count()), ConstNum(2)), Count())
	if got := e.Eval(ls); got != 2 {
		t.Errorf("composite NAF = %f", got)
	}
	// Per-link arithmetic: sum((w+1)*w - w/w) over {1,2,3} = (2*1-1)+(3*2-1)+(4*3-1) = 1+5+11 = 17
	f := SubF(MulF(AddF(AttrNum("w"), One()), AttrNum("w")), DivF(AttrNum("w"), AttrNum("w")))
	if got := Sum(f).Eval(ls); got != 17 {
		t.Errorf("per-link arithmetic = %f", got)
	}
	// Division by zero is total.
	if got := DivN(ConstNum(1), ConstNum(0)).Eval(nil); got != 0 {
		t.Errorf("1/0 = %f, want 0", got)
	}
	if got := DivF(One(), Zero()).Eval(mkLinks(1)[0]); got != 0 {
		t.Errorf("per-link 1/0 = %f, want 0", got)
	}
	if AddN(ConstNum(2), ConstNum(3)).Eval(nil) != 5 {
		t.Error("AddN broken")
	}
	if SubF(One(), Zero()).Eval(mkLinks(1)[0]) != 1 {
		t.Error("SubF broken")
	}
}

func TestNAFStrings(t *testing.T) {
	e := DivN(Sum(AttrNum("w")), Count())
	if e.String() != "(sum($w)/sum(1))" {
		t.Errorf("NAF String = %q", e.String())
	}
	if MaxOf(One()).String() != "max(1)" || MinOf(Zero()).String() != "min(0)" {
		t.Error("min/max String wrong")
	}
	if Product(One()).String() != "prod(1)" || ConstNum(2).String() != "2" {
		t.Error("prod/const String wrong")
	}
	if AddF(One(), Zero()).String() != "(1+0)" {
		t.Error("arith LinkFn String wrong")
	}
	if Num(Count()).String() != "sum(1)" {
		t.Error("Num String wrong")
	}
}

func TestSAFCollect(t *testing.T) {
	ls := []*graph.Link{
		graph.NewLink(1, 1, 2, "t"), graph.NewLink(2, 1, 3, "t"), graph.NewLink(3, 1, 2, "t"),
	}
	ls[0].SetAttr("tags", "b", "a")
	ls[1].SetAttr("tags", "a", "c")
	// ls[2] has no tags.
	if got := Collect("tags").Aggregate(ls); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Collect = %v", got)
	}
	if got := CollectEnd(graph.Tgt).Aggregate(ls); !reflect.DeepEqual(got, []string{"2", "3"}) {
		t.Errorf("CollectEnd = %v", got)
	}
	if got := ConstAgg("x", "y").Aggregate(nil); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Errorf("ConstAgg = %v", got)
	}
	if Collect("tags").String() != "collect(tags)" || CollectEnd(graph.Src).String() != "collectEnd(src)" {
		t.Error("SAF String wrong")
	}
}

// Property: COUNT as derived in the paper (Σ 1) agrees with len; AVG agrees
// with direct computation; SUM distributes over concatenation.
func TestQuickNAFLaws(t *testing.T) {
	f := func(raw []float64, raw2 []float64) bool {
		clean := func(xs []float64) []float64 {
			out := make([]float64, 0, len(xs))
			for _, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					continue
				}
				// Keep magnitudes tame so float addition stays exact enough.
				out = append(out, math.Mod(x, 1000))
			}
			return out
		}
		a, b := clean(raw), clean(raw2)
		la, lb := mkLinks(a...), mkLinks(b...)
		if Count().Eval(la) != float64(len(a)) {
			return false
		}
		var want float64
		for _, x := range a {
			want += x
		}
		if math.Abs(Sum(AttrNum("w")).Eval(la)-want) > 1e-6 {
			return false
		}
		both := append(append([]*graph.Link(nil), la...), lb...)
		lhs := Sum(AttrNum("w")).Eval(both)
		rhs := Sum(AttrNum("w")).Eval(la) + Sum(AttrNum("w")).Eval(lb)
		if math.Abs(lhs-rhs) > 1e-6 {
			return false
		}
		if len(a) > 0 {
			avg := Average(AttrNum("w")).Eval(la)
			if math.Abs(avg-want/float64(len(a))) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Num formats round-trippable floats.
func TestNumFormatting(t *testing.T) {
	ls := mkLinks(0.125, 0.25)
	got := Num(Sum(AttrNum("w"))).Aggregate(ls)
	if len(got) != 1 {
		t.Fatalf("Num values = %v", got)
	}
	v, err := strconv.ParseFloat(got[0], 64)
	if err != nil || v != 0.375 {
		t.Errorf("Num value = %q", got[0])
	}
}
