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
//
// Beyond its id and endpoints a link holds one pointer, to a body with its
// types, attributes and score state; read them through Types, Attrs, Score
// and Scored. A link the graph stores is immutable, and so is its body,
// which it may share: Apply, PutLink, Builder.Link and the decoders give
// every unscored link whose types spell a catalog type set (linkTypeSets)
// and whose attributes are none, or one key with one short value (see
// attrSets), the one body interned for that pair, so a stored tagging is
// 32 bytes. Any other stored link keeps a private body, whose attributes
// may still be a shared set. The mutators (AddType, SetScore, SetAttrs,
// SetAttr, SetAttrFloat, AddAttr, MergeAttrs, Merge) first give the link
// a private body of its own, copying a shared one, but they write the
// receiver: Clone a stored link, which copies deeply, then mutate the
// clone. Copy a Link only through Clone, as a struct copy shares a
// private body.
type Link struct {
	ID  LinkID
	Src NodeID
	Tgt NodeID
	b   *linkBody
}

// linkBody is what a link carries beyond its id and endpoints. A nil body
// is a link with no types, no attributes and no score.
type linkBody struct {
	// types may share a package-level slice (see linkTypeSets): append to
	// it or replace it, never write its elements in place.
	types []string
	// attrs may be a shared set (see attrSets) unless ownAttrs is set.
	attrs  Attrs
	score  float64
	scored bool
	// shared marks a body interned for a (type set, attribute set) pair:
	// every stored link with that pair holds it, so it is never written.
	shared bool
	// ownAttrs reports that attrs is this body's own deep copy, which an
	// attribute mutator may write in place.
	ownAttrs bool
}

// newLink returns a link holding a private body, allocated with it in
// one object.
func newLink(id LinkID, src, tgt NodeID, b linkBody) *Link {
	x := &struct {
		l Link
		b linkBody
	}{Link{ID: id, Src: src, Tgt: tgt}, b}
	x.l.b = &x.b
	return &x.l
}

// NewLink constructs a link with the given id, endpoints and types and an
// empty attribute map. Its types share a package-level slice when they
// spell one of the catalog's link type sets, else they are a private copy.
func NewLink(id LinkID, src, tgt NodeID, types ...string) *Link {
	return newLink(id, src, tgt, linkBody{types: storedTypes(types), attrs: Attrs{}, ownAttrs: true})
}

// Types returns the link's type values. The slice may be shared with other
// links and is capped at its length: never write its elements.
func (l *Link) Types() []string {
	if l.b == nil {
		return nil
	}
	return l.b.types[:len(l.b.types):len(l.b.types)]
}

// Attrs returns the link's attributes. They may be a set shared with other
// links (see attrSets): never write them in place, not even through Set
// or Add. Write through the link's own mutators, or Clone.
func (l *Link) Attrs() Attrs {
	if l.b == nil {
		return nil
	}
	return l.b.attrs
}

// Score returns the relevance score link selection attached, or 0.
func (l *Link) Score() float64 {
	if l.b == nil {
		return 0
	}
	return l.b.score
}

// Scored reports whether a score is attached, distinguishing "score zero"
// from "never scored".
func (l *Link) Scored() bool { return l.b != nil && l.b.scored }

// own gives l a private body, copying a shared one, and returns it.
func (l *Link) own() *linkBody {
	switch {
	case l.b == nil:
		l.b = &linkBody{}
	case l.b.shared:
		b := *l.b
		b.shared, b.ownAttrs = false, false
		l.b = &b
	}
	return l.b
}

// editAttrs returns the link's private attribute set, copying a shared one.
func (l *Link) editAttrs() *Attrs {
	b := l.own()
	if !b.ownAttrs {
		b.attrs, b.ownAttrs = b.attrs.Clone(), true
	}
	return &b.attrs
}

// SetAttrs replaces the link's attributes with a. The link holds a itself,
// not a copy.
func (l *Link) SetAttrs(a Attrs) {
	b := l.own()
	b.attrs, b.ownAttrs = a, false
}

// SetAttr replaces all values of the attribute with the given ones.
func (l *Link) SetAttr(key string, values ...string) { l.editAttrs().Set(key, values...) }

// SetAttrFloat stores a numeric value as the attribute's single value.
func (l *Link) SetAttrFloat(key string, v float64) { l.editAttrs().SetFloat(key, v) }

// AddAttr adds a value to the attribute if not already present.
func (l *Link) AddAttr(key, value string) { l.editAttrs().Add(key, value) }

// MergeAttrs folds a into the link's attributes with set semantics per key.
func (l *Link) MergeAttrs(a Attrs) {
	if len(a) > 0 {
		l.editAttrs().Merge(a)
	}
}

// linkTypeSets are the link type sets of the paper's catalog (types.go), in
// the order the package's builders spell them. Links whose types equal one
// of them share its slice instead of each holding a copy — on a live site
// that is most links — and, with their attribute set, may share a body.
// The slices are never written, and each is capped at its length, so
// AddType's append copies.
var linkTypeSets = [...][]string{
	{TypeConnect}, {TypeConnect, SubtypeFriend}, {TypeConnect, SubtypeContact},
	{TypeAct}, {TypeAct, SubtypeTag}, {TypeAct, SubtypeReview}, {TypeAct, SubtypeClick},
	{TypeAct, SubtypeVisit}, {TypeAct, SubtypeRating},
	{TypeMatch}, {TypeBelong},
}

// maxLinkTypeSet is the most types any set of linkTypeSets holds.
const maxLinkTypeSet = 2

// typeSet returns the index in linkTypeSets of the set equal to ts, or -1.
func typeSet(ts []string) int {
	for i, s := range linkTypeSets[:] {
		if slices.Equal(s, ts) {
			return i
		}
	}
	return -1
}

// sharedTypes returns the entry of linkTypeSets equal to ts, or nil.
func sharedTypes(ts []string) []string {
	if i := typeSet(ts); i >= 0 {
		return linkTypeSets[i]
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

// emptyBodies are the interned bodies of unscored links with a catalog
// type set and no attributes.
var emptyBodies = func() (bs [len(linkTypeSets)]*linkBody) {
	for i, ts := range linkTypeSets {
		bs[i] = &linkBody{types: ts, attrs: Attrs{}, shared: true}
	}
	return bs
}()

// internedBody returns the body interned for an unscored link with types
// ts and attributes a, or nil when there is none: ts is not a catalog
// type set, or a is neither empty nor a set the shared table holds.
func internedBody(ts []string, a Attrs) *linkBody {
	i := typeSet(ts)
	if i < 0 {
		return nil
	}
	if len(a) == 0 {
		return emptyBodies[i]
	}
	if e := sharedEntry(a); e != nil {
		return e.body(i)
	}
	return nil
}

// End returns the node id at the given direction, implementing the paper's
// l.δd notation.
func (l *Link) End(d Direction) NodeID {
	return d.End(l.Src, l.Tgt)
}

// Rating is the endorsement strength of an act link, rating(u, i) in
// §7.2: its rating attribute, or 1 when it carries none.
func (l *Link) Rating() float64 {
	if v, ok := l.Attrs().Float("rating"); ok {
		return v
	}
	return 1
}

// HasType reports whether the link carries the given type value.
func (l *Link) HasType(t string) bool {
	return l.b != nil && slices.Contains(l.b.types, t)
}

// AddType appends a type value if not already present.
func (l *Link) AddType(t string) {
	if !l.HasType(t) {
		b := l.own()
		b.types = append(b.types, t)
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

// Clone returns a deep copy of the link, with a private body; like
// NewLink's, its types share a catalog type set when they spell one.
func (l *Link) Clone() *Link {
	if l.b == nil {
		return &Link{ID: l.ID, Src: l.Src, Tgt: l.Tgt}
	}
	return newLink(l.ID, l.Src, l.Tgt, linkBody{
		types: storedTypes(l.b.types), attrs: l.b.attrs.Clone(),
		score: l.b.score, scored: l.b.scored, ownAttrs: true,
	})
}

// stored returns the copy of l a graph stores (see Link).
func (l *Link) stored() *Link {
	if l.b == nil || l.b.shared {
		return &Link{ID: l.ID, Src: l.Src, Tgt: l.Tgt, b: l.b}
	}
	return storedLink(l.ID, l.Src, l.Tgt, l.b.types, l.b.attrs, l.b.score, l.b.scored)
}

// storedLink returns the link a graph stores for these parts: it holds the
// interned body for its types and attributes where there is one, else a
// private body whose types and attributes are shared sets where they
// spell one and copies otherwise.
func storedLink(id LinkID, src, tgt NodeID, ts []string, a Attrs, score float64, scored bool) *Link {
	if !scored {
		if b := internedBody(ts, a); b != nil {
			return &Link{ID: id, Src: src, Tgt: tgt, b: b}
		}
	}
	b := linkBody{types: storedTypes(ts), score: score, scored: scored}
	if s := sharedAttrs(a); s != nil {
		b.attrs = s
	} else {
		b.attrs, b.ownAttrs = a.Clone(), true
	}
	return newLink(id, src, tgt, b)
}

// SetScore attaches a relevance score to the link.
func (l *Link) SetScore(s float64) {
	b := l.own()
	b.score, b.scored = s, true
}

// Merge consolidates another link with the same id into this one,
// mirroring Node.Merge. Endpoints must already agree: links share an id only
// when they denote the same connection.
func (l *Link) Merge(other *Link) {
	if other == nil || other.ID != l.ID {
		return
	}
	for _, t := range other.Types() {
		l.AddType(t)
	}
	l.MergeAttrs(other.Attrs())
	if other.Scored() && (!l.Scored() || other.Score() > l.Score()) {
		l.SetScore(other.Score())
	}
}

// Equal reports whether two links have the same id, endpoints, type set,
// attributes and score state.
func (l *Link) Equal(other *Link) bool {
	if l == nil || other == nil {
		return l == other
	}
	if l.ID != other.ID || l.Src != other.Src || l.Tgt != other.Tgt || l.Scored() != other.Scored() {
		return false
	}
	if l.Scored() && l.Score() != other.Score() {
		return false
	}
	if l.b == other.b {
		return true
	}
	lt, ot := l.Types(), other.Types()
	if len(lt) != len(ot) || !l.TypeSuperset(ot) || !other.TypeSuperset(lt) {
		return false
	}
	return l.Attrs().Equal(other.Attrs())
}

// Text returns the link's searchable text: types plus all attribute values.
func (l *Link) Text() string {
	ts := strings.ToLower(strings.Join(l.Types(), " "))
	at := l.Attrs().Text()
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
	types := slices.Clone(l.Types())
	sort.Strings(types)
	s := fmt.Sprintf("l%d(%d->%d){type='%s'", l.ID, l.Src, l.Tgt, strings.Join(types, ","))
	for _, at := range l.Attrs() {
		s += fmt.Sprintf("; %s=%s", at.Key, strings.Join(at.Vals, ","))
	}
	if l.Scored() {
		s += fmt.Sprintf("; score=%.4g", l.Score())
	}
	return s + "}"
}
