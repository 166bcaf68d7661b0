// Package core implements SocialScope's logical algebra for manipulating
// social content graphs (Section 5 of the paper) — the paper's primary
// contribution. Every operator takes social content graphs as input and
// produces a social content graph:
//
//   - unary selections σN⟨C,S⟩ and σL⟨C,S⟩ (Definitions 1-2)
//   - set-theoretic ∪, ∩, node-driven minus \ (Definition 3) and
//     link-driven minus \· (Definition 4)
//   - composition ⟨δ,F⟩ and semi-join ⋉δ (Definitions 5-6)
//   - node and link aggregation γN, γL with the SAF and NAF aggregation
//     function classes (Definitions 7-10)
//   - graph-pattern aggregation (Figure 2)
//
// Operators never mutate their inputs: they share unmodified elements and
// clone elements before attaching scores or aggregation results. The package
// also provides an expression tree over the operators with a rule-based
// rewriter (including the Lemma 1 expansion of \· into \ and ⋉).
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// Op is a comparison operator usable in a structural condition. Eq uses the
// paper's superset satisfaction rule for multi-valued attributes; the
// ordered operators compare numerically (first value) and fail on
// non-numeric data.
type Op uint8

const (
	Eq Op = iota // value set is a superset of the required values
	Ne           // negation of Eq
	Gt           // numeric >
	Ge           // numeric >=
	Lt           // numeric <
	Le           // numeric <=
)

func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Lt:
		return "<"
	case Le:
		return "<="
	}
	return "?"
}

// StructCond is one structural predicate over a node's or link's attributes.
// The reserved attribute names "type" and "id" address the type set and the
// element id respectively, matching the paper's usage (type='city',
// id=101, id≠101, sim>0.5, rating>=0.5).
type StructCond struct {
	Attr   string
	Op     Op
	Values []string
}

// Cond builds an equality structural condition.
func Cond(attr string, values ...string) StructCond {
	return StructCond{Attr: attr, Op: Eq, Values: values}
}

// CondOp builds a structural condition with an explicit operator.
func CondOp(attr string, op Op, values ...string) StructCond {
	return StructCond{Attr: attr, Op: op, Values: values}
}

func (sc StructCond) String() string {
	return fmt.Sprintf("%s%s%s", sc.Attr, sc.Op, strings.Join(sc.Values, ","))
}

// structMatcher is a StructCond with its operand parsed once, so an
// operator evaluating it over every element of a graph makes no fmt call
// per element. The parses are the ones a per-element evaluation would
// make, so which elements satisfy the condition cannot change.
type structMatcher struct {
	StructCond
	ids    []int64 // Values that %d prints back exactly, for id= and id!=
	want   float64 // Values[0] parsed for an ordered comparison
	wantOK bool
}

func (sc StructCond) matcher() structMatcher {
	m := structMatcher{StructCond: sc}
	switch {
	case sc.Attr == "type":
	case sc.Attr == "id" && (sc.Op == Eq || sc.Op == Ne):
		// A value equals fmt.Sprintf("%d", id) exactly when it is the
		// canonical decimal form of id.
		for _, v := range sc.Values {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && strconv.FormatInt(n, 10) == v {
				m.ids = append(m.ids, n)
			}
		}
	case len(sc.Values) == 0 || sc.Op == Eq || sc.Op == Ne:
	case sc.Attr == "id":
		var want int64
		_, err := fmt.Sscanf(sc.Values[0], "%d", &want)
		m.want, m.wantOK = float64(want), err == nil
	default:
		_, err := fmt.Sscanf(sc.Values[0], "%g", &m.want)
		m.wantOK = err == nil
	}
	return m
}

// ColumnCond is a structural condition over nodes in the form a
// column-at-a-time evaluator applies it, with its operand parsed here, by
// the row matcher's rule: either a type-set test — the node carries every
// type in Types — or an ordered comparison of attribute Attr's number, its
// first value as graph.Attrs.Float parses it, absent when that fails.
type ColumnCond struct {
	TypeSet bool
	Types   []string
	Attr    string
	op      Op
	want    float64
}

// Column returns sc as a ColumnCond, or false when only the row matcher
// evaluates it: conditions on id, Eq and Ne on attributes, Ne on type, and
// ordered comparisons whose operand is missing or does not parse. A node
// satisfies sc exactly when it passes the returned test.
func (sc StructCond) Column() (ColumnCond, bool) {
	switch {
	case sc.Attr == "type":
		// Ordered operators on types act as Eq (compareTypes).
		return ColumnCond{TypeSet: true, Types: sc.Values}, sc.Op != Ne
	case sc.Attr == "id" || sc.Op == Eq || sc.Op == Ne:
		return ColumnCond{}, false
	}
	m := sc.matcher()
	return ColumnCond{Attr: sc.Attr, op: sc.Op, want: m.want}, m.wantOK
}

// Holds reports whether an ordered ColumnCond accepts a present attribute
// value v.
func (c ColumnCond) Holds(v float64) bool { return compareOrdered(c.op, v, c.want) }

// satisfies evaluates the condition against an element's id, types and
// attributes.
func (m structMatcher) satisfies(id int64, types []string, attrs graph.Attrs) bool {
	switch m.Attr {
	case "id":
		return m.compareID(id)
	case "type":
		return m.compareTypes(types)
	default:
		return m.compareAttr(attrs)
	}
}

func (m structMatcher) compareID(id int64) bool {
	if len(m.Values) == 0 {
		return m.Op != Ne
	}
	switch m.Op {
	case Eq, Ne:
		return slices.Contains(m.ids, id) == (m.Op == Eq)
	default:
		// Ordered comparison against the first value.
		return m.wantOK && compareOrdered(m.Op, float64(id), m.want)
	}
}

func (m structMatcher) compareTypes(types []string) bool {
	superset := true
	for _, w := range m.Values {
		if !slices.Contains(types, w) {
			superset = false
			break
		}
	}
	if m.Op == Ne {
		return !superset
	}
	return superset // ordered ops are meaningless on types; treat as Eq
}

func (m structMatcher) compareAttr(attrs graph.Attrs) bool {
	switch m.Op {
	case Eq:
		return attrs.Superset(m.Attr, m.Values)
	case Ne:
		return !attrs.Superset(m.Attr, m.Values)
	default:
		if !m.wantOK {
			return false
		}
		have, ok := attrs.Float(m.Attr)
		return ok && compareOrdered(m.Op, have, m.want)
	}
}

func compareOrdered(op Op, have, want float64) bool {
	switch op {
	case Gt:
		return have > want
	case Ge:
		return have >= want
	case Lt:
		return have < want
	case Le:
		return have <= want
	}
	return false
}

// Condition is the paper's C parameter: a list of structural conditions
// (interpreted as a Boolean conjunction) plus a set of keywords used to
// compute semantic relevance. When keywords are present, an element
// satisfies C only if its score is positive — content conditions scope the
// selection as well as score it (Example 4 uses C3 = {type='destination',
// 'near Denver'} as a filter).
type Condition struct {
	Structural []StructCond
	Keywords   []string
}

// NewCondition builds a condition from structural predicates.
func NewCondition(structural ...StructCond) Condition {
	return Condition{Structural: structural}
}

// WithKeywords returns a copy of the condition with the given keyword
// string tokenized and attached.
func (c Condition) WithKeywords(keywords string) Condition {
	c.Keywords = scoring.Tokenize(keywords)
	return c
}

// IsEmpty reports whether the condition constrains nothing (an empty query,
// which the paper allows: "when a query is empty, only social relevance is
// accounted for").
func (c Condition) IsEmpty() bool {
	return len(c.Structural) == 0 && len(c.Keywords) == 0
}

// String renders the condition in the paper's {cond, cond, 'keywords'} form.
func (c Condition) String() string {
	parts := make([]string, 0, len(c.Structural)+1)
	for _, sc := range c.Structural {
		parts = append(parts, sc.String())
	}
	if len(c.Keywords) > 0 {
		parts = append(parts, "'"+strings.Join(c.Keywords, " ")+"'")
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SatisfiedByNode evaluates the structural part of the condition on a node.
func (c Condition) SatisfiedByNode(n *graph.Node) bool { return c.matcher().node(n) }

// SatisfiedByLink evaluates the structural part of the condition on a link.
func (c Condition) SatisfiedByLink(l *graph.Link) bool { return c.matcher().link(l) }

// NodeMatcher compiles the condition's structural part once, for a caller
// that evaluates it over many nodes without building a graph: the returned
// predicate is SatisfiedByNode with every operand already parsed, so it
// keeps exactly the nodes NodeSelect keeps for the keyword-free condition.
func (c Condition) NodeMatcher() func(*graph.Node) bool { return c.matcher().node }

// matcher is a condition's structural part with every operand parsed, for
// operators that evaluate one condition over many elements.
type matcher []structMatcher

func (c Condition) matcher() matcher {
	m := make(matcher, len(c.Structural))
	for i, sc := range c.Structural {
		m[i] = sc.matcher()
	}
	return m
}

func (m matcher) node(n *graph.Node) bool {
	for i := range m {
		if !m[i].satisfies(int64(n.ID), n.Types, n.Attrs) {
			return false
		}
	}
	return true
}

func (m matcher) link(l *graph.Link) bool {
	for i := range m {
		if !m[i].satisfies(int64(l.ID), l.Types(), l.Attrs()) {
			return false
		}
	}
	return true
}

// Scorer is the paper's optional S parameter: it maps an element's
// searchable text and the condition's keywords to a relevance score.
type Scorer func(keywords []string, text string) float64

// DefaultScorer is used when S is omitted but keywords are present
// (Section 5.1: "If no scoring function is specified, but C includes
// keywords, a default scoring function is used").
var DefaultScorer Scorer = scoring.DefaultScorer
