package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Node is an entity in the social content graph: a user, an item (city,
// restaurant, URL, ...), a derived topic, or a group. The multi-valued Types
// field realizes the paper's mandatory, multi-valued type attribute; all
// other structure lives in Attrs. Score carries the relevance score attached
// by a selection or discovery operator; Scored distinguishes "score zero"
// from "never scored".
type Node struct {
	ID     NodeID
	Types  []string
	Attrs  Attrs
	Score  float64
	Scored bool
}

// NewNode constructs a node with the given id and types and an empty
// attribute map.
func NewNode(id NodeID, types ...string) *Node {
	return &Node{ID: id, Types: append([]string(nil), types...), Attrs: Attrs{}}
}

// HasType reports whether the node carries the given type value.
func (n *Node) HasType(t string) bool {
	for _, v := range n.Types {
		if v == t {
			return true
		}
	}
	return false
}

// AddType appends a type value if not already present.
func (n *Node) AddType(t string) {
	if !n.HasType(t) {
		n.Types = append(n.Types, t)
	}
}

// TypeSuperset reports whether the node's type set contains every wanted
// type, per the paper's structural-condition satisfaction rule.
func (n *Node) TypeSuperset(want []string) bool {
	for _, w := range want {
		if !n.HasType(w) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the node. Algebra operators clone before
// attaching scores or aggregation results so inputs stay immutable.
func (n *Node) Clone() *Node {
	c := *n
	c.Types = append([]string(nil), n.Types...)
	c.Attrs = n.Attrs.Clone()
	return &c
}

// SetScore attaches a relevance score to the node.
func (n *Node) SetScore(s float64) {
	n.Score = s
	n.Scored = true
}

// Merge consolidates another node with the same id into this one:
// types and attributes merge with set semantics; the higher score wins.
// Definition 3 requires nodes with the same id to be consolidated in the
// output of set-theoretic operators.
func (n *Node) Merge(other *Node) {
	if other == nil || other.ID != n.ID {
		return
	}
	for _, t := range other.Types {
		n.AddType(t)
	}
	n.Attrs.Merge(other.Attrs)
	if other.Scored && (!n.Scored || other.Score > n.Score) {
		n.SetScore(other.Score)
	}
}

// Equal reports whether two nodes have the same id, type set, attributes and
// score state.
func (n *Node) Equal(other *Node) bool {
	if n == nil || other == nil {
		return n == other
	}
	if n.ID != other.ID || n.Scored != other.Scored {
		return false
	}
	if n.Scored && n.Score != other.Score {
		return false
	}
	if len(n.Types) != len(other.Types) || !n.TypeSuperset(other.Types) || !other.TypeSuperset(n.Types) {
		return false
	}
	return n.Attrs.Equal(other.Attrs)
}

// Text returns the node's searchable text: types plus all attribute values.
func (n *Node) Text() string {
	ts := strings.ToLower(strings.Join(n.Types, " "))
	at := n.Attrs.Text()
	if ts == "" {
		return at
	}
	if at == "" {
		return ts
	}
	return ts + " " + at
}

// String renders the node in the paper's notation, e.g.
// {id=1; type='user,traveler'; name=John}.
func (n *Node) String() string {
	types := append([]string(nil), n.Types...)
	sort.Strings(types)
	s := fmt.Sprintf("{id=%d; type='%s'", n.ID, strings.Join(types, ","))
	for _, at := range n.Attrs {
		s += fmt.Sprintf("; %s=%s", at.Key, strings.Join(at.Vals, ","))
	}
	if n.Scored {
		s += fmt.Sprintf("; score=%.4g", n.Score)
	}
	return s + "}"
}
