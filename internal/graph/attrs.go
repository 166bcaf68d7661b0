package graph

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Attr is one structural attribute of a node or link: a key and its values.
type Attr struct {
	Key  string
	Vals []string
}

// Attrs holds the schema-less, multi-valued structural attributes of a node
// or link. The paper's satisfaction rule (Section 5.1) treats an attribute's
// values as a set: a condition att=v1,...,vk is satisfied when the stored
// value set is a superset of {v1,...,vk}. Values are kept in insertion order
// but compared as sets.
//
// The layout is a slice sorted by Key with unique keys: a node or link
// carries a handful of attributes, and a sorted slice holds them in a
// fraction of a map's memory while iterating in the canonical key order the
// encoders and String need. Build one with NewAttrs, AttrsFromMap or the
// mutators; a literal must itself list its keys sorted and unrepeated. The
// mutators (Set, Add, SetFloat, SetInt, Merge) take a pointer receiver,
// because an insertion may move the slice.
//
// Assigning an Attrs copies the slice header, not the attributes, so a
// copy does not share writes with its original: a write through one copy
// may or may not show through the other. Mutate only an Attrs you own —
// Clone one read from a published graph.
//
// A link the graph stores whose attributes are one key with one short
// value — a tagging's tags=<tag> — holds a set shared with every stored
// link that spells the same pair (see attrSets), and when its types spell
// a catalog type set it shares its whole body with them too (see Link).
// A shared set is never written: Set, Add and Merge on it would write the
// Attr element every such link reads. A link's Attrs is read-only; write
// through the link's mutators (SetAttr, AddAttr, MergeAttrs), which copy
// a shared set first, or Clone, which always copies deeply, then mutate.
type Attrs []Attr

// Shared attribute sets. On a live site most links carry one attribute
// with one value drawn from a small vocabulary, so the graph stores one
// immutable copy of each such set, as it does for link types
// (linkTypeSets), and hangs off it the bodies interned for the set with
// each catalog type set (see Link). The table is process-wide and
// bounded: a pair longer than maxSharedAttrBytes stays a private copy,
// and once the table holds maxSharedAttrSets sets a new pair takes the
// place of one not asked for since the clock hand last passed it
// (second-chance replacement), so a hostile vocabulary can neither grow
// the table nor keep a live vocabulary out of it. An evicted set lives on
// in the links that hold it.
const (
	maxSharedAttrSets  = 4096
	maxSharedAttrBytes = 64
)

// attrPair keys the table by key and value, so a hit builds no string.
type attrPair struct{ key, val string }

// attrEntry is one shared set, the bodies interned for it (one per
// catalog type set, built on first use) and its clock reference bit.
type attrEntry struct {
	pair   attrPair
	set    Attrs
	ref    atomic.Bool
	bodies [len(linkTypeSets)]atomic.Pointer[linkBody]
}

// body returns the interned body of unscored links with type set
// linkTypeSets[i] and this attribute set.
func (e *attrEntry) body(i int) *linkBody {
	if b := e.bodies[i].Load(); b != nil {
		return b
	}
	e.bodies[i].CompareAndSwap(nil, &linkBody{types: linkTypeSets[i], attrs: e.set, shared: true})
	return e.bodies[i].Load()
}

// attrTable maps each shared pair to its entry. ring holds the entries in
// clock order and hand is the next one the clock considers replacing.
type attrTable struct {
	mu   sync.RWMutex
	m    map[attrPair]*attrEntry
	ring []*attrEntry
	hand int
}

// attrSets is the process-wide table every stored link draws from.
var attrSets = attrTable{m: make(map[attrPair]*attrEntry)}

// get returns the entry of the shared set {key=val}, adding it, or nil
// when the pair is too long. Both levels of a shared set are capped at
// their length, so an append to either copies. A hit allocates nothing.
func (t *attrTable) get(key, val string) *attrEntry {
	if len(key)+len(val) > maxSharedAttrBytes {
		return nil
	}
	p := attrPair{key, val}
	t.mu.RLock()
	e := t.m[p]
	t.mu.RUnlock()
	if e != nil {
		e.hit()
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e = t.m[p]; e != nil {
		e.hit()
		return e
	}
	// Own the strings: a caller's may be slices of a larger buffer.
	p = attrPair{strings.Clone(key), strings.Clone(val)}
	e = &attrEntry{pair: p, set: Attrs{{Key: p.key, Vals: []string{p.val}}}}
	t.m[p] = e
	if len(t.ring) < maxSharedAttrSets {
		t.ring = append(t.ring, e)
		return e
	}
	// Second chance: clear reference bits until an entry without one
	// comes under the hand, and put the new pair in its place. At most
	// one turn of the clock, as the hand clears every bit it passes.
	for {
		old := t.ring[t.hand]
		if old.ref.Load() {
			old.ref.Store(false)
			t.hand = (t.hand + 1) % len(t.ring)
			continue
		}
		delete(t.m, old.pair)
		t.ring[t.hand] = e
		t.hand = (t.hand + 1) % len(t.ring)
		return e
	}
}

// hit sets the entry's reference bit, writing it only when clear.
func (e *attrEntry) hit() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// getBytes is get for a pair still in a decode buffer: a hit converts
// neither slice to a string.
func (t *attrTable) getBytes(key, val []byte) *attrEntry {
	if len(key)+len(val) > maxSharedAttrBytes {
		return nil
	}
	t.mu.RLock()
	e := t.m[attrPair{string(key), string(val)}]
	t.mu.RUnlock()
	if e != nil {
		e.hit()
		return e
	}
	return t.get(string(key), string(val))
}

// SharedAttrSets returns how many sets the shared attribute table holds.
func SharedAttrSets() int {
	attrSets.mu.RLock()
	defer attrSets.mu.RUnlock()
	return len(attrSets.m)
}

// sharedEntry returns the table's entry for a, or nil when a is not one
// key with one value or the pair is too long to share.
func sharedEntry(a Attrs) *attrEntry {
	if len(a) != 1 || len(a[0].Vals) != 1 {
		return nil
	}
	return attrSets.get(a[0].Key, a[0].Vals[0])
}

// sharedAttrs returns the shared set equal to a, or nil (see sharedEntry).
func sharedAttrs(a Attrs) Attrs {
	if e := sharedEntry(a); e != nil {
		return e.set
	}
	return nil
}

// NewAttrs builds an attribute set from alternating key/value pairs.
// Repeated keys accumulate multiple values. It panics on an odd number of
// arguments, which is always a programming error, never data-dependent.
func NewAttrs(kv ...string) Attrs {
	if len(kv)%2 != 0 {
		panic("graph.NewAttrs: odd number of key/value arguments")
	}
	a := make(Attrs, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		a.Add(kv[i], kv[i+1])
	}
	return a
}

// AttrsFromMap builds an attribute set from a key → values map, the shape
// of the JSON encodings. The result shares no storage with m, and none
// with a stored link: it builds node sets too, and callers may mutate it.
// A graph shares a link's set when it stores the link.
func AttrsFromMap(m map[string][]string) Attrs {
	if m == nil {
		return nil
	}
	a := make(Attrs, 0, len(m))
	for k, vs := range m {
		a = append(a, Attr{Key: k, Vals: slices.Clone(vs)})
	}
	slices.SortFunc(a, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
	return a
}

// Map returns the attributes as a key → values map (nil for a nil Attrs).
// The value slices are the stored ones; callers must not mutate them.
func (a Attrs) Map() map[string][]string {
	if a == nil {
		return nil
	}
	m := make(map[string][]string, len(a))
	for _, at := range a {
		m[at.Key] = at.Vals
	}
	return m
}

// MarshalJSON encodes the attributes exactly as encoding/json encodes the
// equivalent map: an object with sorted keys, null for a nil Attrs. HTML
// escaping is left to the calling encoder, which applies its own setting
// to a Marshaler's output just as it does to a map.
func (a Attrs) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(a.Map()); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), nil
}

// UnmarshalJSON decodes a JSON object of string arrays with the map's
// semantics: keys already present and absent from the input are kept,
// a duplicate key in the input is last-wins, and null yields nil.
func (a *Attrs) UnmarshalJSON(data []byte) error {
	m := a.Map()
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*a = AttrsFromMap(m)
	return nil
}

// find returns the position of key, or where it would be inserted. A
// linear scan: attribute sets hold a handful of keys.
func (a Attrs) find(key string) (int, bool) {
	for i := range a {
		if a[i].Key >= key {
			return i, a[i].Key == key
		}
	}
	return len(a), false
}

// Get returns the first value of the attribute, or "" if absent.
func (a Attrs) Get(key string) string {
	vs := a.All(key)
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

// All returns every value of the attribute (possibly nil). The returned
// slice is the stored slice; callers must not mutate it.
func (a Attrs) All(key string) []string {
	if i, ok := a.find(key); ok {
		return a[i].Vals
	}
	return nil
}

// Set replaces all values of the attribute with the given ones.
func (a *Attrs) Set(key string, values ...string) {
	vals := append([]string(nil), values...)
	if i, ok := a.find(key); ok {
		(*a)[i].Vals = vals
	} else {
		*a = slices.Insert(*a, i, Attr{Key: key, Vals: vals})
	}
}

// Add appends a value to the attribute if not already present (set
// semantics on write keep Has/Superset checks linear in practice).
func (a *Attrs) Add(key, value string) {
	i, ok := a.find(key)
	if !ok {
		*a = slices.Insert(*a, i, Attr{Key: key, Vals: []string{value}})
		return
	}
	if !slices.Contains((*a)[i].Vals, value) {
		(*a)[i].Vals = append((*a)[i].Vals, value)
	}
}

// Has reports whether the attribute contains the given value.
func (a Attrs) Has(key, value string) bool {
	return slices.Contains(a.All(key), value)
}

// Superset reports whether the stored value set for key contains every value
// in want. This is the paper's structural-condition satisfaction rule.
func (a Attrs) Superset(key string, want []string) bool {
	return containsAll(a.All(key), want)
}

func containsAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}

// Float parses the first value of the attribute as a float64. ok is false
// when the attribute is absent or not numeric.
func (a Attrs) Float(key string) (v float64, ok bool) {
	s := a.Get(key)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// SetFloat stores a numeric value as the attribute's single value.
func (a *Attrs) SetFloat(key string, v float64) {
	a.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// Int parses the first value of the attribute as an int64.
func (a Attrs) Int(key string) (v int64, ok bool) {
	s := a.Get(key)
	if s == "" {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// SetInt stores an integer value as the attribute's single value.
func (a *Attrs) SetInt(key string, v int64) {
	a.Set(key, strconv.FormatInt(v, 10))
}

// Clone returns a deep copy. Operators in the algebra clone attributes
// before mutating so that input graphs are never modified.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for i, at := range a {
		c[i] = Attr{Key: at.Key, Vals: append([]string(nil), at.Vals...)}
	}
	return c
}

// Merge folds the other attribute set into this one with set semantics per
// key. Used when set-theoretic operators consolidate two nodes or links with
// the same id (Definition 3).
func (a *Attrs) Merge(other Attrs) {
	for _, at := range other {
		for _, v := range at.Vals {
			a.Add(at.Key, v)
		}
	}
}

// Equal reports whether two attribute sets hold the same value sets.
func (a Attrs) Equal(other Attrs) bool {
	if len(a) != len(other) {
		return false
	}
	for i, at := range a {
		ot := other[i]
		if at.Key != ot.Key || len(at.Vals) != len(ot.Vals) ||
			!containsAll(at.Vals, ot.Vals) || !containsAll(ot.Vals, at.Vals) {
			return false
		}
	}
	return true
}

// Text concatenates every attribute value into a single lowercase string for
// keyword scoring. The mandatory type attribute participates, matching the
// paper's use of content conditions against whole entities.
func (a Attrs) Text() string {
	var sb strings.Builder
	for _, at := range a {
		for _, v := range at.Vals {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strings.ToLower(v))
		}
	}
	return sb.String()
}

// String renders the attributes in a stable {k=v1,v2; ...} form.
func (a Attrs) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, at := range a {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(at.Key)
		sb.WriteByte('=')
		sb.WriteString(strings.Join(at.Vals, ","))
	}
	sb.WriteByte('}')
	return sb.String()
}
