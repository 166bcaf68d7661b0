package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sameShape reports the first place two tries differ: bitmaps, bucket
// flags, entries in slot order, or child count, recursively.
func sameShape[K comparable, V comparable](a, b *node[K, V], at string) error {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Errorf("%s: one trie is empty", at)
		}
		return nil
	case a.datamap != b.datamap || a.nodemap != b.nodemap || a.coll != b.coll:
		return fmt.Errorf("%s: bitmaps %x/%x coll %v, want %x/%x coll %v",
			at, a.datamap, a.nodemap, a.coll, b.datamap, b.nodemap, b.coll)
	case !reflect.DeepEqual(append([]K{}, a.keys...), append([]K{}, b.keys...)):
		return fmt.Errorf("%s: keys %v, want %v", at, a.keys, b.keys)
	case !reflect.DeepEqual(append([]V{}, a.vals...), append([]V{}, b.vals...)):
		return fmt.Errorf("%s: vals %v, want %v", at, a.vals, b.vals)
	case len(a.subs) != len(b.subs):
		return fmt.Errorf("%s: %d children, want %d", at, len(a.subs), len(b.subs))
	}
	for i := range a.subs {
		if err := sameShape(a.subs[i], b.subs[i], fmt.Sprintf("%s/%d", at, i)); err != nil {
			return err
		}
	}
	return nil
}

// exactSize reports a node slice of the trie with spare capacity.
func exactSize[K comparable, V any](n *node[K, V]) error {
	if n == nil {
		return nil
	}
	if cap(n.keys) != len(n.keys) || cap(n.vals) != len(n.vals) || cap(n.subs) != len(n.subs) {
		return fmt.Errorf("node with keys %d/%d vals %d/%d subs %d/%d (len/cap)",
			len(n.keys), cap(n.keys), len(n.vals), cap(n.vals), len(n.subs), cap(n.subs))
	}
	for _, s := range n.subs {
		if err := exactSize(s); err != nil {
			return err
		}
	}
	return nil
}

// checkBuild builds keys → vals both ways, through Build and through a
// chain of Sets, and requires the same trie, Range order, Len and Gets,
// with every slice of the built trie exact-size.
func checkBuild[K comparable, V comparable](t *testing.T, empty Map[K, V], keys []K, vals []V) {
	t.Helper()
	want := empty
	for i, k := range keys {
		want = want.Set(k, vals[i])
	}
	got := empty.Build(keys, vals)
	if err := sameShape(got.root, want.root, "root"); err != nil {
		t.Fatalf("%d entries: %v", len(keys), err)
	}
	if err := exactSize(got.root); err != nil {
		t.Fatalf("%d entries: %v", len(keys), err)
	}
	if got.Len() != want.Len() || got.Len() != len(keys) {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	var gotOrder, wantOrder []K
	got.Range(func(k K, _ V) bool { gotOrder = append(gotOrder, k); return true })
	want.Range(func(k K, _ V) bool { wantOrder = append(wantOrder, k); return true })
	if !reflect.DeepEqual(gotOrder, wantOrder) {
		t.Fatalf("%d entries: Range order differs", len(keys))
	}
	for i, k := range keys {
		if v, ok := got.Get(k); !ok || v != vals[i] {
			t.Fatalf("Get(%v) = %v, %v; want %v", k, v, ok, vals[i])
		}
	}
}

// TestBuildMatchesSet holds Build to the trie sequential Sets give, on
// random int and string key sets across the sizes where the root fills
// (64, 65) and the trie deepens (1k, 20k), and on collision buckets.
func TestBuildMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 64, 65, 1000, 20000} {
		seen := make(map[int]bool)
		var ints []int
		var strs []string
		for len(ints) < n {
			k := rng.Int()
			if !seen[k] {
				seen[k] = true
				ints = append(ints, k)
				strs = append(strs, fmt.Sprintf("key-%x", k))
			}
		}
		vals := rng.Perm(n)
		checkBuild(t, NewIntMap[int, int](), ints, vals)
		checkBuild(t, NewStringMap[int](), strs, vals)
		checkBuild(t, NewIntMap[int, int](), ints[:n/2], vals[:n/2])
	}
	// A constant hash sends every key to one collision bucket, and a hash
	// with 8 values to 8 buckets under one chain of single-child nodes;
	// both keep input order.
	constant := func(int) uint64 { return 42 }
	few := func(k int) uint64 { return uint64(k%8) << 61 }
	for _, n := range []int{2, 3, 40, 300} {
		keys := rng.Perm(n)
		vals := rng.Perm(n)
		checkBuild(t, NewMap[int, int](constant), keys, vals)
		checkBuild(t, NewMap[int, int](few), keys, vals)
	}
}

// TestBuildRejects: a repeated key, a non-empty receiver and unequal
// slices each panic, in both write modes.
func TestBuildRejects(t *testing.T) {
	constant := func(int) uint64 { return 1 }
	for _, disable := range []bool{false, true} {
		for name, fn := range map[string]func(){
			"repeat":        func() { NewIntMap[int, int]().Build([]int{1, 2, 1}, []int{0, 0, 0}) },
			"repeat bucket": func() { NewMap[int, int](constant).Build([]int{1, 2, 1}, []int{0, 0, 0}) },
			"non-empty":     func() { NewIntMap[int, int]().Set(1, 1).Build([]int{2}, []int{2}) },
			"unequal":       func() { NewIntMap[int, int]().Build([]int{1, 2}, []int{1}) },
		} {
			func() {
				DisableTransients = disable
				defer func() {
					DisableTransients = false
					if recover() == nil {
						t.Errorf("Build (%s, DisableTransients %v) did not panic", name, disable)
					}
				}()
				fn()
			}()
		}
	}
}

// fuzzMap returns the empty map and the key decoder the write fuzzers
// share, chosen by mode. Below 65, keys are the 16-bit inputs under a
// Hash64 that keeps only mode of their bits, so short inputs reach deep
// chains and collision buckets. At 65 the map is NewIntMap's, and an input
// picks an id from a dense range of 1024 (64 full leaves) or its
// neighbours across the int64 range: x+2^60, MinInt64+x and MaxInt64-x.
func fuzzMap(mode uint8) (Map[int64, int], func(uint16) int64) {
	if mode %= 66; mode == 65 {
		return NewIntMap[int64, int](), func(k uint16) int64 {
			x := int64(k & 0x3ff)
			switch k >> 13 {
			case 1:
				return x + 1<<60
			case 2:
				return math.MinInt64 + x
			case 3:
				return math.MaxInt64 - x
			}
			return x
		}
	}
	hash := func(k int64) uint64 {
		h := Hash64(uint64(k))
		if mode < 64 {
			h &= 1<<mode - 1
		}
		return h
	}
	return NewMap[int64, int](hash), func(k uint16) int64 { return int64(k) }
}

// FuzzBuildMatchesSet decodes the input as 16-bit keys in one of
// fuzzMap's modes and holds Build to sequential Set.
func FuzzBuildMatchesSet(f *testing.F) {
	f.Add([]byte{}, uint8(64))
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint8(0))
	f.Add([]byte{1, 0, 1, 1, 1, 2, 1, 3, 0, 7}, uint8(3))
	f.Add([]byte{1, 0, 2, 0, 17, 0, 1, 0x20, 1, 0x40, 1, 0x60, 0xff, 0x63}, uint8(65))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		empty, key := fuzzMap(mode)
		seen := make(map[int64]bool)
		var keys []int64
		var vals []int
		for i := 0; i+1 < len(data); i += 2 {
			k := key(binary.LittleEndian.Uint16(data[i:]))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
				vals = append(vals, i)
			}
		}
		checkBuild(t, empty, keys, vals)
	})
}
