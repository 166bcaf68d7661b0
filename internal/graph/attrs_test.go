package graph

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
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
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decoded %#v, want %#v", c.name, got, c.want)
		}
		if again := appendAttrs(nil, got); !bytes.Equal(again, appendAttrs(nil, c.want)) {
			t.Errorf("%s: re-encoding is not canonical", c.name)
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
