package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"socialscope/internal/graph"
)

// Aggregator is the paper's A parameter: a function from a collection of
// links to the value(s) stored in the destination attribute. The two
// classes the paper defines — SAF (set aggregate functions, Definition 7)
// and NAF (numerical aggregate functions, Definition 8) — both implement
// it; AF = SAF ∪ NAF.
type Aggregator interface {
	// Aggregate maps a group of links to the destination attribute's values.
	Aggregate(ls []*graph.Link) []string
	// String describes the aggregator for plan explanations.
	String() string
}

// --- SAF: set aggregate functions (Definition 7) -------------------------

// collectAttr is {$x | l ∈ L & l.att = $x}: the set of distinct values of
// att across the links, sorted for determinism.
type collectAttr struct{ attr string }

// Collect returns the SAF that gathers the distinct values of a link
// attribute, e.g. the set of all tags a user has assigned.
func Collect(attr string) Aggregator { return collectAttr{attr} }

func (c collectAttr) Aggregate(ls []*graph.Link) []string {
	seen := make(map[string]struct{})
	for _, l := range ls {
		for _, v := range l.Attrs().All(c.attr) {
			seen[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (c collectAttr) String() string { return fmt.Sprintf("collect(%s)", c.attr) }

// collectEnd gathers the distinct endpoint ids at a direction — the SAF
// Example 5 step 2 needs ("collects the set of destinations that John has
// visited"), where the collected scalars are node ids rather than attribute
// values.
type collectEnd struct{ d graph.Direction }

// CollectEnd returns the SAF that gathers the distinct node ids at the
// given end of the links.
func CollectEnd(d graph.Direction) Aggregator { return collectEnd{d} }

func (c collectEnd) Aggregate(ls []*graph.Link) []string {
	seen := make(map[graph.NodeID]struct{})
	for _, l := range ls {
		seen[l.End(c.d)] = struct{}{}
	}
	ids := make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, int64(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = strconv.FormatInt(id, 10)
	}
	return out
}

func (c collectEnd) String() string { return fmt.Sprintf("collectEnd(%s)", c.d) }

// constAgg assigns a constant value — Example 5 step 6's A', which stamps
// type='match' on the aggregated link.
type constAgg struct{ values []string }

// ConstAgg returns the aggregator that always produces the given values.
func ConstAgg(values ...string) Aggregator { return constAgg{values} }

func (c constAgg) Aggregate([]*graph.Link) []string { return append([]string(nil), c.values...) }
func (c constAgg) String() string                   { return "const(" + strings.Join(c.values, ",") + ")" }

// --- NAF: numerical aggregate functions (Definition 8) -------------------
//
// NAF is defined inductively: the arithmetic operations, the constant
// functions 0 and 1, summation and product over a collection of a NAF-
// mapped value, and closure under composition. We realize the induction as
// two small ASTs: LinkFn, a per-element numeric function (the f inside
// Σ_{x∈X} f(x)), and NumExpr, a collection-level expression. COUNT, SUM,
// AVG are derived exactly as the paper constructs them
// (COUNT(X) = Σ_{x∈X} 1(x)); MIN and MAX are provided as the primitives
// whose construction the paper notes is possible but omits.

// LinkFn is a per-link numeric function.
type LinkFn interface {
	Eval(l *graph.Link) float64
	String() string
}

type oneFn struct{}

// One is the constant function 1 of Definition 8.
func One() LinkFn { return oneFn{} }

func (oneFn) Eval(*graph.Link) float64 { return 1 }
func (oneFn) String() string           { return "1" }

type zeroFn struct{}

// Zero is the constant function 0 of Definition 8.
func Zero() LinkFn { return zeroFn{} }

func (zeroFn) Eval(*graph.Link) float64 { return 0 }
func (zeroFn) String() string           { return "0" }

type attrNum struct{ attr string }

// AttrNum reads a link attribute as a number (0 when absent or
// non-numeric); it is the accessor that lets arithmetic reach the data.
func AttrNum(attr string) LinkFn { return attrNum{attr} }

func (a attrNum) Eval(l *graph.Link) float64 {
	v, _ := l.Attrs().Float(a.attr)
	return v
}
func (a attrNum) String() string { return "$" + a.attr }

type arithFn struct {
	op   byte
	l, r LinkFn
}

// AddF, SubF, MulF, DivF lift the arithmetic operations of Definition 8 to
// per-link functions. DivF yields 0 on a zero denominator, keeping the
// algebra total.
func AddF(l, r LinkFn) LinkFn { return arithFn{'+', l, r} }

// SubF is per-link subtraction.
func SubF(l, r LinkFn) LinkFn { return arithFn{'-', l, r} }

// MulF is per-link multiplication.
func MulF(l, r LinkFn) LinkFn { return arithFn{'*', l, r} }

// DivF is per-link division (total: x/0 = 0).
func DivF(l, r LinkFn) LinkFn { return arithFn{'/', l, r} }

func (a arithFn) Eval(l *graph.Link) float64 {
	x, y := a.l.Eval(l), a.r.Eval(l)
	switch a.op {
	case '+':
		return x + y
	case '-':
		return x - y
	case '*':
		return x * y
	case '/':
		if y == 0 {
			return 0
		}
		return x / y
	}
	return 0
}
func (a arithFn) String() string {
	return "(" + a.l.String() + string(a.op) + a.r.String() + ")"
}

// NumExpr is a collection-level NAF expression.
type NumExpr interface {
	Eval(ls []*graph.Link) float64
	String() string
}

type sumExpr struct{ f LinkFn }

// Sum is Σ_{x∈X} f(x) of Definition 8.
func Sum(f LinkFn) NumExpr { return sumExpr{f} }

func (s sumExpr) Eval(ls []*graph.Link) float64 {
	var t float64
	for _, l := range ls {
		t += s.f.Eval(l)
	}
	return t
}
func (s sumExpr) String() string { return "sum(" + s.f.String() + ")" }

type prodExpr struct{ f LinkFn }

// Product is Π_{x∈X} f(x) of Definition 8.
func Product(f LinkFn) NumExpr { return prodExpr{f} }

func (p prodExpr) Eval(ls []*graph.Link) float64 {
	t := 1.0
	for _, l := range ls {
		t *= p.f.Eval(l)
	}
	return t
}
func (p prodExpr) String() string { return "prod(" + p.f.String() + ")" }

type constExpr struct{ v float64 }

// ConstNum is a constant collection-level expression.
func ConstNum(v float64) NumExpr { return constExpr{v} }

func (c constExpr) Eval([]*graph.Link) float64 { return c.v }
func (c constExpr) String() string             { return strconv.FormatFloat(c.v, 'g', -1, 64) }

type arithExpr struct {
	op   byte
	l, r NumExpr
}

// AddN, SubN, MulN, DivN combine collection-level expressions; NAF is
// closed under these compositions.
func AddN(l, r NumExpr) NumExpr { return arithExpr{'+', l, r} }

// SubN is collection-level subtraction.
func SubN(l, r NumExpr) NumExpr { return arithExpr{'-', l, r} }

// MulN is collection-level multiplication.
func MulN(l, r NumExpr) NumExpr { return arithExpr{'*', l, r} }

// DivN is collection-level division (total: x/0 = 0).
func DivN(l, r NumExpr) NumExpr { return arithExpr{'/', l, r} }

func (a arithExpr) Eval(ls []*graph.Link) float64 {
	x, y := a.l.Eval(ls), a.r.Eval(ls)
	switch a.op {
	case '+':
		return x + y
	case '-':
		return x - y
	case '*':
		return x * y
	case '/':
		if y == 0 {
			return 0
		}
		return x / y
	}
	return 0
}
func (a arithExpr) String() string {
	return "(" + a.l.String() + string(a.op) + a.r.String() + ")"
}

// Count is the paper's COUNT(X) ::= Σ_{x∈X} 1(x).
func Count() NumExpr { return Sum(One()) }

// Average is AVG(f) = Σf / COUNT, total (0 over the empty collection).
func Average(f LinkFn) NumExpr { return DivN(Sum(f), Count()) }

type minMaxExpr struct {
	f   LinkFn
	max bool
}

// MinOf is the minimum of f over the collection (0 over the empty one).
// The paper states min/max are expressible in NAF but omits the
// construction; we provide them as primitives.
func MinOf(f LinkFn) NumExpr { return minMaxExpr{f, false} }

// MaxOf is the maximum of f over the collection (0 over the empty one).
func MaxOf(f LinkFn) NumExpr { return minMaxExpr{f, true} }

func (m minMaxExpr) Eval(ls []*graph.Link) float64 {
	if len(ls) == 0 {
		return 0
	}
	best := m.f.Eval(ls[0])
	for _, l := range ls[1:] {
		v := m.f.Eval(l)
		if m.max && v > best || !m.max && v < best {
			best = v
		}
	}
	return best
}
func (m minMaxExpr) String() string {
	if m.max {
		return "max(" + m.f.String() + ")"
	}
	return "min(" + m.f.String() + ")"
}

// numAgg adapts a NumExpr into an Aggregator producing a single numeric
// attribute value.
type numAgg struct{ e NumExpr }

// Num wraps a NAF expression as an aggregator.
func Num(e NumExpr) Aggregator { return numAgg{e} }

func (n numAgg) Aggregate(ls []*graph.Link) []string {
	return []string{strconv.FormatFloat(n.e.Eval(ls), 'g', -1, 64)}
}
func (n numAgg) String() string { return n.e.String() }
