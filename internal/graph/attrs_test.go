package graph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNewAttrs(t *testing.T) {
	a := NewAttrs("type", "user", "type", "traveler", "name", "John")
	if got := a.Get("name"); got != "John" {
		t.Errorf("Get(name) = %q, want John", got)
	}
	if got := a.All("type"); !reflect.DeepEqual(got, []string{"user", "traveler"}) {
		t.Errorf("All(type) = %v", got)
	}
}

func TestNewAttrsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd kv count")
		}
	}()
	NewAttrs("only-key")
}

func TestAttrsAddDeduplicates(t *testing.T) {
	a := Attrs{}
	a.Add("tags", "baseball")
	a.Add("tags", "baseball")
	a.Add("tags", "rockies")
	if got := a.All("tags"); len(got) != 2 {
		t.Errorf("duplicate value stored: %v", got)
	}
}

func TestAttrsSupersetSatisfaction(t *testing.T) {
	// The paper: node satisfies att=v1..vk iff its value set is a superset.
	a := NewAttrs("type", "item", "type", "city", "keywords", "skiing")
	cases := []struct {
		key  string
		want []string
		ok   bool
	}{
		{"type", []string{"city"}, true},
		{"type", []string{"item", "city"}, true},
		{"type", []string{"city", "hotel"}, false},
		{"keywords", []string{"skiing"}, true},
		{"missing", []string{"x"}, false},
		{"type", nil, true}, // empty requirement always satisfied
	}
	for _, c := range cases {
		if got := a.Superset(c.key, c.want); got != c.ok {
			t.Errorf("Superset(%s, %v) = %v, want %v", c.key, c.want, got, c.ok)
		}
	}
}

func TestAttrsNumeric(t *testing.T) {
	a := Attrs{}
	a.SetFloat("rating", 0.5)
	if v, ok := a.Float("rating"); !ok || v != 0.5 {
		t.Errorf("Float(rating) = %v,%v", v, ok)
	}
	a.SetInt("count", 42)
	if v, ok := a.Int("count"); !ok || v != 42 {
		t.Errorf("Int(count) = %v,%v", v, ok)
	}
	if _, ok := a.Float("missing"); ok {
		t.Error("Float(missing) reported ok")
	}
	a.Set("junk", "not-a-number")
	if _, ok := a.Float("junk"); ok {
		t.Error("Float(junk) reported ok")
	}
	if _, ok := a.Int("junk"); ok {
		t.Error("Int(junk) reported ok")
	}
}

func TestAttrsCloneIndependence(t *testing.T) {
	a := NewAttrs("k", "v1")
	c := a.Clone()
	c.Add("k", "v2")
	c.Set("new", "x")
	if len(a.All("k")) != 1 || a.Get("new") != "" {
		t.Errorf("clone mutated original: %v", a)
	}
	var nilA Attrs
	if nilA.Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestAttrsMerge(t *testing.T) {
	a := NewAttrs("type", "user", "name", "John")
	b := NewAttrs("type", "traveler", "name", "John", "city", "Denver")
	a.Merge(b)
	if !a.Superset("type", []string{"user", "traveler"}) {
		t.Errorf("merge lost types: %v", a)
	}
	if len(a.All("name")) != 1 {
		t.Errorf("merge duplicated name: %v", a.All("name"))
	}
	if a.Get("city") != "Denver" {
		t.Errorf("merge missed new key: %v", a)
	}
}

func TestAttrsEqual(t *testing.T) {
	a := NewAttrs("k", "v1", "k", "v2")
	b := NewAttrs("k", "v2", "k", "v1") // order differs, set equal
	if !a.Equal(b) {
		t.Error("set-equal attrs reported unequal")
	}
	c := NewAttrs("k", "v1")
	if a.Equal(c) {
		t.Error("different value counts reported equal")
	}
	d := NewAttrs("k2", "v1", "k2", "v2")
	if a.Equal(d) {
		t.Error("different keys reported equal")
	}
}

func TestAttrsText(t *testing.T) {
	a := NewAttrs("name", "Denver", "keywords", "Skiing")
	txt := a.Text()
	if txt != "skiing denver" && txt != "denver skiing" {
		// keys iterate sorted: keywords < name
		t.Errorf("Text() = %q", txt)
	}
}

func TestAttrsStringDeterministic(t *testing.T) {
	a := NewAttrs("b", "2", "a", "1")
	if got := a.String(); got != "{a=1; b=2}" {
		t.Errorf("String() = %q", got)
	}
}

// TestBinAttrsCanonical: bytes the encoder never writes — a repeated key,
// keys out of order — decode as a key → values map reads them: the last
// values of a repeated key win and keys come back sorted, so the
// re-encoding is canonical.
func TestBinAttrsCanonical(t *testing.T) {
	vs := func(v ...string) []string { return v }
	cases := []struct {
		name      string
		raw, want Attrs
	}{
		{"empty", Attrs{}, Attrs{}},
		{"one pair", Attrs{{"tags", vs("museum")}}, Attrs{{"tags", vs("museum")}}},
		{"one pair, two values", Attrs{{"tags", vs("a", "b")}}, Attrs{{"tags", vs("a", "b")}}},
		{"sorted", Attrs{{"a", vs("1")}, {"b", vs("2", "3")}}, Attrs{{"a", vs("1")}, {"b", vs("2", "3")}}},
		{"unsorted", Attrs{{"b", vs("2")}, {"a", vs("1")}}, Attrs{{"a", vs("1")}, {"b", vs("2")}}},
		{"repeated key", Attrs{{"a", vs("1")}, {"a", vs("2")}}, Attrs{{"a", vs("2")}}},
		{"both", Attrs{{"c", vs("x")}, {"a", vs("1")}, {"c", vs("y")}, {"b", nil}, {"a", vs("2")}},
			Attrs{{"a", vs("2")}, {"b", nil}, {"c", vs("y")}}},
	}
	for _, c := range cases {
		src := appendAttrs(nil, c.raw)
		got, n, err := binAttrs(src)
		if err != nil || n != len(src) {
			t.Fatalf("%s: binAttrs = _, %d, %v; want %d bytes consumed", c.name, n, err, len(src))
		}
		// A link's decoder shares what it can, to the same attributes.
		l := NewLink(1, 1, 2, TypeAct, SubtypeTag)
		l.SetAttrs(c.raw)
		dl, _, err := DecodeLinkBin(AppendLinkBin(nil, l))
		if err != nil {
			t.Fatal(err)
		}
		for from, got := range map[string]Attrs{"binAttrs": got, "DecodeLinkBin": dl.Attrs()} {
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s (%s): decoded %#v, want %#v", c.name, from, got, c.want)
			}
			if again := appendAttrs(nil, got); !bytes.Equal(again, appendAttrs(nil, c.want)) {
				t.Errorf("%s (%s): re-encoding is not canonical", c.name, from)
			}
		}
	}
}

// TestAttrsJSONMatchesMap: encoding/json writes an Attrs byte for byte as
// it writes the equivalent map — top level, inside a struct under
// omitempty, with and without HTML escaping — and reads the map's bytes
// back to the same attributes.
func TestAttrsJSONMatchesMap(t *testing.T) {
	type attrsDoc struct {
		A Attrs `json:"attrs,omitempty"`
	}
	type mapDoc struct {
		A map[string][]string `json:"attrs,omitempty"`
	}
	cases := []struct {
		a Attrs
		m map[string][]string
	}{
		{nil, nil},
		{Attrs{}, map[string][]string{}},
		{NewAttrs("name", "Denver"), map[string][]string{"name": {"Denver"}}},
		{NewAttrs("b", "2", "a", "1", "a", "0"), map[string][]string{"a": {"1", "0"}, "b": {"2"}}},
		{Attrs{{Key: "k"}}, map[string][]string{"k": nil}},
		{Attrs{{Key: "k", Vals: []string{}}}, map[string][]string{"k": {}}},
		{NewAttrs("html", `<a href="x">&</a>`, "uni", "café ✓", "bad", "\xff\n\t"),
			map[string][]string{"html": {`<a href="x">&</a>`}, "uni": {"café ✓"}, "bad": {"\xff\n\t"}}},
	}
	encode := func(v any, escapeHTML bool) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(escapeHTML)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, c := range cases {
		for _, esc := range []bool{true, false} {
			if got, want := encode(c.a, esc), encode(c.m, esc); got != want {
				t.Errorf("%#v (escapeHTML %v): %s, map gives %s", c.a, esc, got, want)
			}
			if got, want := encode(attrsDoc{c.a}, esc), encode(mapDoc{c.m}, esc); got != want {
				t.Errorf("%#v in a struct (escapeHTML %v): %s, map gives %s", c.a, esc, got, want)
			}
		}
		data := []byte(encode(c.m, true))
		var back Attrs
		var backMap map[string][]string
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &backMap); err != nil {
			t.Fatal(err)
		}
		sorted := slices.IsSortedFunc(back, func(x, y Attr) int { return strings.Compare(x.Key, y.Key) })
		if !reflect.DeepEqual(back.Map(), backMap) || !sorted {
			t.Errorf("decoding %s gave %#v, the map %#v", data, back, backMap)
		}
	}
	var dup Attrs
	if err := json.Unmarshal([]byte(`{"b":["1"],"a":["x"],"b":["2"]}`), &dup); err != nil {
		t.Fatal(err)
	}
	if want := NewAttrs("a", "x", "b", "2"); !reflect.DeepEqual(dup, want) {
		t.Errorf("duplicate JSON key decoded to %#v, want %#v", dup, want)
	}
}

// TestNewAttrsOneKeyAllocsPinned: a one-key attribute set — what most
// links carry — costs the attribute slice and its value slice, nothing more.
func TestNewAttrsOneKeyAllocsPinned(t *testing.T) {
	var sink Attrs
	if got := testing.AllocsPerRun(100, func() { sink = NewAttrs("tags", "museum") }); got > 2 {
		t.Errorf("NewAttrs with one key allocates %.0f times, over its pin of 2", got)
	}
	_ = sink
}

// checkAttrTable fails t when a shared set no longer spells its pair, or
// could grow in place, or the clock's ring and the map disagree.
func checkAttrTable(t *testing.T, tab *attrTable) {
	t.Helper()
	tab.mu.RLock()
	defer tab.mu.RUnlock()
	for p, e := range tab.m {
		a := e.set
		if e.pair != p || len(a) != 1 || cap(a) != 1 || a[0].Key != p.key ||
			len(a[0].Vals) != 1 || cap(a[0].Vals) != 1 || a[0].Vals[0] != p.val {
			t.Fatalf("shared set for %q=%q is now %#v", p.key, p.val, a)
		}
	}
	if len(tab.ring) != len(tab.m) {
		t.Fatalf("clock ring holds %d entries, map %d", len(tab.ring), len(tab.m))
	}
	for _, e := range tab.ring {
		if tab.m[e.pair] != e {
			t.Fatalf("clock ring entry %q=%q is not the map's", e.pair.key, e.pair.val)
		}
	}
}

// TestAttrTable: a pair's shared set is one exact-size copy, found again
// from strings or decode bytes without allocating; pairs past the length
// bound are not shared, and a full table takes a new pair in place of
// one no store asked for since the clock hand last passed it.
func TestAttrTable(t *testing.T) {
	tab := attrTable{m: make(map[attrPair]*attrEntry)}
	a := tab.get("tags", "museum").set
	if !reflect.DeepEqual(a, NewAttrs("tags", "museum")) || cap(a) != 1 || cap(a[0].Vals) != 1 {
		t.Fatalf("shared set %#v (caps %d, %d), want tags=museum at cap 1", a, cap(a), cap(a[0].Vals))
	}
	key, val := []byte("tags"), []byte("museum")
	if b := tab.getBytes(key, val).set; &b[0] != &a[0] {
		t.Error("getBytes did not find the pair get stored")
	}
	if n := testing.AllocsPerRun(100, func() { tab.get("tags", "museum") }); n != 0 {
		t.Errorf("a hit by strings allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { tab.getBytes(key, val) }); n != 0 {
		t.Errorf("a hit by decode bytes allocates %.0f times", n)
	}
	limit := strings.Repeat("v", maxSharedAttrBytes-1)
	if tab.get("k", limit) == nil {
		t.Error("a pair at the length bound is not shared")
	}
	if tab.get("k", limit+"v") != nil || tab.getBytes([]byte("k"), []byte(limit+"v")) != nil {
		t.Error("a pair past the length bound is shared")
	}
	for i := 0; len(tab.m) < maxSharedAttrSets; i++ {
		tab.get("k", strconv.Itoa(i))
	}
	if tab.get("k", "one too many") == nil || tab.getBytes([]byte("k"), []byte("one more")) == nil {
		t.Error("a full table refused a new pair")
	}
	if got := tab.get("tags", "museum").set; &got[0] != &a[0] {
		t.Error("a full table evicted a pair asked for since the hand last passed it")
	}
	if tab.m[attrPair{"k", limit}] != nil || tab.m[attrPair{"k", "0"}] != nil {
		t.Error("the two new pairs did not take the places of the first pairs asked for once")
	}
	if len(tab.m) != maxSharedAttrSets {
		t.Errorf("table holds %d sets, bound %d", len(tab.m), maxSharedAttrSets)
	}
	_ = append(a, Attr{Key: "z"})
	_ = append(a[0].Vals, "beach")
	checkAttrTable(t, &tab)
}

// TestStorePathsShareAttrs: every path that stores a link — Builder.Link,
// Apply's add and put-link merge, the JSON decoder, checkpoint loads and
// the WAL batch decoder — holds a one-pair attribute set as the shared
// set; larger sets stay private, and Clone still copies deeply.
func TestStorePathsShareAttrs(t *testing.T) {
	shared := attrSets.get("tags", "museum").set
	isShared := func(a Attrs) bool { return len(a) == 1 && &a[0] == &shared[0] }
	tagged := []string{TypeAct, SubtypeTag}

	b := NewBuilder()
	u, v := b.Node([]string{TypeUser}), b.Node([]string{TypeItem})
	built := b.Link(u, v, tagged, "tags", "museum")
	rated := b.Link(u, v, tagged, "tags", "museum", "rating", "4")
	g := b.Graph()
	if !isShared(g.Link(built).Attrs()) {
		t.Error("Builder.Link does not share a one-pair set")
	}
	if got := g.Link(rated).Attrs(); !got.Equal(NewAttrs("tags", "museum", "rating", "4")) {
		t.Errorf("Builder.Link stored %v", got)
	}

	added := NewLink(10, u, v, tagged...)
	added.AddAttr("tags", "museum")
	if err := g.Apply(Mutation{Kind: MutAddLink, Link: added}); err != nil {
		t.Fatal(err)
	}
	added.SetAttr("tags", "beach")
	if got := g.Link(10).Attrs(); !isShared(got) {
		t.Errorf("Apply's add-link stored %v, not the shared set", got)
	}
	if err := g.Apply(Mutation{Kind: MutAddLink, Link: NewLink(11, u, v, tagged...)}); err != nil {
		t.Fatal(err)
	}
	put := NewLink(11, u, v)
	put.AddAttr("tags", "museum")
	if err := g.Apply(Mutation{Kind: MutPutLink, Link: put}); err != nil {
		t.Fatal(err)
	}
	if got := g.Link(11).Attrs(); !isShared(got) {
		t.Errorf("a put-link merge stored %v, not the shared set", got)
	}

	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := NewCkptReader().Apply(NewCkptWriter().AppendCheckpoint(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	for name, lg := range map[string]*Graph{"JSON decode": dec, "checkpoint load": ckpt} {
		if !isShared(lg.Link(built).Attrs()) || !isShared(lg.Link(11).Attrs()) {
			t.Errorf("%s does not share one-pair sets", name)
		}
		if !lg.Link(rated).Attrs().Equal(g.Link(rated).Attrs()) {
			t.Errorf("%s stored %v", name, lg.Link(rated).Attrs())
		}
	}
	muts, err := DecodeMutations(AppendMutations(nil, []Mutation{{Kind: MutAddLink, Link: g.Link(10)}}))
	if err != nil {
		t.Fatal(err)
	}
	if !isShared(muts[0].Link.Attrs()) {
		t.Error("the WAL batch decoder does not share a one-pair set")
	}

	c := g.Link(built).Clone()
	c.SetAttr("tags", "beach")
	c.AddAttr("tags", "family")
	c.MergeAttrs(NewAttrs("tags", "parks"))
	if !reflect.DeepEqual(shared, NewAttrs("tags", "museum")) {
		t.Fatalf("a mutated clone wrote the shared set: %v", shared)
	}
	checkAttrTable(t, &attrSets)
}

// TestAttrTableConcurrent: goroutines filing overlapping pairs, from
// strings and from bytes, each get the one set the table keeps per pair.
func TestAttrTableConcurrent(t *testing.T) {
	tab := attrTable{m: make(map[attrPair]*attrEntry)}
	const workers, pairs = 4, 64
	got := make([][]*attrEntry, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*attrEntry, pairs)
			for i := range pairs {
				val := strconv.Itoa((i + w*7) % pairs)
				if w%2 == 0 {
					got[w][(i+w*7)%pairs] = tab.get("tags", val)
				} else {
					got[w][(i+w*7)%pairs] = tab.getBytes([]byte("tags"), []byte(val))
				}
			}
		}()
	}
	wg.Wait()
	for i := range pairs {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("pair %d: workers 0 and %d hold different sets", i, w)
			}
		}
	}
	checkAttrTable(t, &tab)
}

// TestAttrTablePoisoning: a writer that fills the shared table with junk
// pairs cannot keep a live vocabulary out of it. With the table full of
// junk, a real tag stored again and again among more junk ends up shared:
// every link stored with it holds the one set, and the one body.
func TestAttrTablePoisoning(t *testing.T) {
	g := New()
	for id := NodeID(1); id <= 2; id++ {
		if err := g.AddNode(NewNode(id, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	g.BeginBulk() // the links share endpoints: let their lists grow in place
	defer g.EndBulk()
	var id LinkID
	store := func(key, val string) *Link {
		id++
		l := NewLink(id, 1, 2, TypeAct, SubtypeTag)
		l.SetAttr(key, val)
		if err := g.Apply(Mutation{Kind: MutAddLink, Link: l}); err != nil {
			t.Fatal(err)
		}
		return g.Link(id)
	}
	for i := range maxSharedAttrSets {
		store("junk", "poison-"+strconv.Itoa(i))
	}
	var real []*Link
	for i := range 4 * maxSharedAttrSets {
		store("junk", "more-"+strconv.Itoa(i))
		if i%16 == 0 {
			real = append(real, store("tags", "waterfront"))
		}
	}
	first := real[0]
	for i, l := range real {
		if a := l.Attrs(); len(a) != 1 || &a[0] != &first.Attrs()[0] || l.b != first.b {
			t.Fatalf("real tag stored %d times among junk: store %d holds %p (body %p), the first %p (body %p)",
				len(real), i, a, l.b, first.Attrs(), first.b)
		}
	}
	if n := SharedAttrSets(); n > maxSharedAttrSets {
		t.Errorf("table holds %d sets, bound %d", n, maxSharedAttrSets)
	}
	checkAttrTable(t, &attrSets)
}
