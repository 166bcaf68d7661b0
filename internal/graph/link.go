package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Link is a directed connection or activity between two nodes: a friendship,
// a tagging action, a review, a derived match, or a membership. Like nodes,
// links carry a multi-valued type and schema-less attributes, plus an
// optional score attached by link selection.
type Link struct {
	ID  LinkID
	Src NodeID
	Tgt NodeID
	// Types may share a package-level slice (see linkTypeSets): append to
	// it or replace it, never write its elements in place.
	Types  []string
	Attrs  Attrs
	Score  float64
	Scored bool
}

// NewLink constructs a link with the given id, endpoints and types and an
// empty attribute map. Types shares a package-level slice when the types
// spell one of the catalog's link type sets, else it is a private copy.
func NewLink(id LinkID, src, tgt NodeID, types ...string) *Link {
	return &Link{ID: id, Src: src, Tgt: tgt, Types: storedTypes(types), Attrs: Attrs{}}
}

// linkTypeSets are the link type sets of the paper's catalog (types.go), in
// the order the package's builders spell them. Links whose Types equals one
// of them share its slice instead of each holding a copy — on a live site
// that is most links. The slices are never written, and each is capped at
// its length, so AddType's append copies.
var linkTypeSets = [][]string{
	{TypeConnect}, {TypeConnect, SubtypeFriend}, {TypeConnect, SubtypeContact},
	{TypeAct}, {TypeAct, SubtypeTag}, {TypeAct, SubtypeReview}, {TypeAct, SubtypeClick},
	{TypeAct, SubtypeVisit}, {TypeAct, SubtypeRating},
	{TypeMatch}, {TypeBelong},
}

// sharedTypes returns the entry of linkTypeSets equal to ts, or nil.
func sharedTypes(ts []string) []string {
	for _, s := range linkTypeSets {
		if slices.Equal(s, ts) {
			return s
		}
	}
	return nil
}

// storedTypes returns the shared type set equal to ts, or else a private
// copy of ts.
func storedTypes(ts []string) []string {
	if s := sharedTypes(ts); s != nil {
		return s
	}
	return append([]string(nil), ts...)
}

// End returns the node id at the given direction, implementing the paper's
// l.δd notation.
func (l *Link) End(d Direction) NodeID {
	return d.End(l.Src, l.Tgt)
}

// HasType reports whether the link carries the given type value.
func (l *Link) HasType(t string) bool {
	for _, v := range l.Types {
		if v == t {
			return true
		}
	}
	return false
}

// AddType appends a type value if not already present.
func (l *Link) AddType(t string) {
	if !l.HasType(t) {
		l.Types = append(l.Types, t)
	}
}

// TypeSuperset reports whether the link's type set contains every wanted type.
func (l *Link) TypeSuperset(want []string) bool {
	for _, w := range want {
		if !l.HasType(w) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the link; like NewLink's, its Types shares
// a catalog type set when it spells one.
func (l *Link) Clone() *Link {
	c := *l
	c.Types = storedTypes(l.Types)
	c.Attrs = l.Attrs.Clone()
	return &c
}

// SetScore attaches a relevance score to the link.
func (l *Link) SetScore(s float64) {
	l.Score = s
	l.Scored = true
}

// Merge consolidates another link with the same id into this one,
// mirroring Node.Merge. Endpoints must already agree: links share an id only
// when they denote the same connection.
func (l *Link) Merge(other *Link) {
	if other == nil || other.ID != l.ID {
		return
	}
	for _, t := range other.Types {
		l.AddType(t)
	}
	l.Attrs.Merge(other.Attrs)
	if other.Scored && (!l.Scored || other.Score > l.Score) {
		l.SetScore(other.Score)
	}
}

// Equal reports whether two links have the same id, endpoints, type set,
// attributes and score state.
func (l *Link) Equal(other *Link) bool {
	if l == nil || other == nil {
		return l == other
	}
	if l.ID != other.ID || l.Src != other.Src || l.Tgt != other.Tgt || l.Scored != other.Scored {
		return false
	}
	if l.Scored && l.Score != other.Score {
		return false
	}
	if len(l.Types) != len(other.Types) || !l.TypeSuperset(other.Types) || !other.TypeSuperset(l.Types) {
		return false
	}
	return l.Attrs.Equal(other.Attrs)
}

// Text returns the link's searchable text: types plus all attribute values.
func (l *Link) Text() string {
	ts := strings.ToLower(strings.Join(l.Types, " "))
	at := l.Attrs.Text()
	if ts == "" {
		return at
	}
	if at == "" {
		return ts
	}
	return ts + " " + at
}

// String renders the link in the paper's notation, e.g.
// l12(1,2) {type='act,tag'; tags=rockies,baseball}.
func (l *Link) String() string {
	types := append([]string(nil), l.Types...)
	sort.Strings(types)
	s := fmt.Sprintf("l%d(%d->%d){type='%s'", l.ID, l.Src, l.Tgt, strings.Join(types, ","))
	for _, at := range l.Attrs {
		s += fmt.Sprintf("; %s=%s", at.Key, strings.Join(at.Vals, ","))
	}
	if l.Scored {
		s += fmt.Sprintf("; score=%.4g", l.Score)
	}
	return s + "}"
}
