package persist

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

// unmix46 inverts mix46: each xorshift by 23 is its own inverse on 46
// bits, and each odd multiplier has an inverse mod 2^46.
func unmix46(x uint64) uint64 {
	const mask = 1<<46 - 1
	inv := func(c uint64) uint64 {
		y := c // Newton's iteration doubles the correct low bits each step
		for i := 0; i < 6; i++ {
			y *= 2 - c*y
		}
		return y
	}
	x ^= x >> 23
	x = x * inv(0x94d049bb133111eb) & mask
	x ^= x >> 23
	x = x * inv(0xbf58476d1ce4e5b9) & mask
	x ^= x >> 23
	return x
}

// unIntPath inverts intPath.
func unIntPath(p uint64) uint64 {
	return p&63<<10 | p>>6&63<<4 | p>>12&15 | p>>16&3<<16 | unmix46(p>>18)<<18
}

// TestIntPathBijective: intPath is a bijection on 64-bit keys, so distinct
// integer keys never share a full path and never reach a collision
// bucket. The low 18 bits are checked exhaustively, the rest through the
// inverse on random and extreme keys.
func TestIntPathBijective(t *testing.T) {
	seen := make([]bool, 1<<18)
	for x := uint64(0); x < 1<<18; x++ {
		p := intPath(x) & (1<<18 - 1)
		if seen[p] {
			t.Fatalf("low 18 bits of intPath(%d) = %#x, already taken", x, p)
		}
		seen[p] = true
	}
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{0, 1, math.MaxUint64, math.MaxInt64, 1 << 63, 1 << 60, 1<<46 - 1}
	for i := 0; i < 100000; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, x := range keys {
		if got := unIntPath(intPath(x)); got != x {
			t.Fatalf("intPath(%#x) inverts to %#x", x, got)
		}
	}

	extreme := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	m, ref := NewIntMap[int64, int](), map[int64]int{}
	for i, k := range extreme {
		for _, k := range []int64{k, k + 1<<60, k ^ 1<<62} {
			m = m.Set(k, i)
			ref[k] = i
		}
	}
	collisions(t, m.root)
	if m.Len() != len(ref) {
		t.Fatalf("Len %d, want %d", m.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%d) = %d, %v; want %d", k, got, ok, v)
		}
	}
}

// collisions fails on any collision bucket in the trie under n.
func collisions[K comparable, V any](t *testing.T, n *node[K, V]) {
	t.Helper()
	if n.coll {
		t.Fatalf("integer keys %v in a collision bucket", n.keys)
	}
	for _, s := range n.subs {
		collisions(t, s)
	}
}

// leafOf returns the node holding k inline.
func leafOf[K comparable, V any](m Map[K, V], k K) *node[K, V] {
	h, n := m.hash(k), m.root
	for shift := uint(0); n != nil; shift += branchBits {
		bit := uint64(1) << (h >> shift & branchMask)
		if n.datamap&bit != 0 {
			return n
		}
		if n.nodemap&bit == 0 {
			return nil
		}
		n = n.subs[bits.OnesCount64(n.nodemap&(bit-1))]
	}
	return nil
}

// TestIntPathDenseLeaves: ids that differ only in their low leafBits bits
// have paths that differ only in the bits the third level reads, so they
// share a leaf whether they sit near zero, past 2^18 (where the mixer
// takes over) or at the ends of the int64 range; and ids below 2^16 range
// in ascending order. The leaf width is a compile-time constant: width
// below would not compile if leafBits were a variable.
func TestIntPathDenseLeaves(t *testing.T) {
	const width = 1 << leafBits
	if width != 16 {
		t.Fatalf("leaf width %d, want 16", width)
	}
	const leafChunk = (width - 1) << (2 * branchBits)
	rng := rand.New(rand.NewSource(2))
	// Bases apart in bits 4 to 17, so no two blocks meet on one path.
	bases := []int64{math.MinInt64, math.MaxInt64 - width + 1}
	for i := int64(1); i <= 200; i++ {
		high := int64(0)
		if i > 50 {
			high = rng.Int63() &^ (1<<18 - 1)
		}
		bases = append(bases, high|i*width)
	}
	m := NewIntMap[int64, int]()
	for _, b := range bases {
		for i := int64(0); i < width; i++ {
			m = m.Set(b+i, 0)
		}
	}
	for _, b := range bases {
		leaf := leafOf(m, b)
		if leaf == nil {
			t.Fatalf("id %d not found inline", b)
		}
		for i := int64(1); i < width; i++ {
			if d := intPath(uint64(b)) ^ intPath(uint64(b+i)); d&^leafChunk != 0 {
				t.Fatalf("paths of ids %d and %d differ in %#x, outside the leaf's chunk", b, b+i, d)
			}
			if leafOf(m, b+i) != leaf {
				t.Fatalf("ids %d and %d in different leaves", b, b+i)
			}
		}
	}

	ids := rng.Perm(1 << 16)
	dense := NewIntMap[int, int]().Build(ids, ids)
	next := 0
	dense.Range(func(k, _ int) bool {
		if k != next {
			t.Fatalf("Range gave %d, want %d", k, next)
		}
		next++
		return true
	})
}

// TestIntPathMixesHighBits: bits 18 and up reach the trie through mix46,
// so two ids that differ only in one high bit part at the fourth level for
// almost every id, rather than only at the level that reads that bit.
func TestIntPathMixesHighBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bit := range []uint{18, 30, 45, 60, 63} {
		apart := 0
		const trials = 4096
		for i := 0; i < trials; i++ {
			x := rng.Uint64()
			a, b := intPath(x), intPath(x^1<<bit)
			if a>>18&branchMask != b>>18&branchMask {
				apart++
			}
		}
		if apart < trials*9/10 {
			t.Errorf("ids differing in bit %d part at the fourth level %d times in %d", bit, apart, trials)
		}
	}
	for _, x := range []uint64{0, 1, 12345, 1<<46 - 1} {
		if got := intPath(x<<18) >> 18; got != mix46(x) {
			t.Errorf("bits 18 and up of intPath(%#x<<18) = %#x, want mix46 = %#x", x, got, mix46(x))
		}
	}
}

// trieBytes sums the bytes m's trie holds: each node and the backing
// arrays of its slices, at capacity.
func trieBytes[K comparable, V any](m Map[K, V]) int {
	var k K
	var v V
	var walk func(n *node[K, V]) int
	walk = func(n *node[K, V]) int {
		b := int(unsafe.Sizeof(*n)) + cap(n.keys)*int(unsafe.Sizeof(k)) +
			cap(n.vals)*int(unsafe.Sizeof(v)) + cap(n.subs)*int(unsafe.Sizeof(n))
		for _, s := range n.subs {
			b += walk(s)
		}
		return b
	}
	if m.root == nil {
		return 0
	}
	return walk(m.root)
}

// TestIntPathHostileIDs holds the trie bytes per key of 8192 ids picked
// to defeat the layout — pairs (x, x+2^60) that agree on every bit the
// upper levels read, and a stride of 2^40 that leaves the low 40 bits
// zero — to 3× those of random ids. Without mix46 the pairs cost about
// 10× random ids: every pair grows a chain of single-child nodes down to
// the level that reads bit 60.
func TestIntPathHostileIDs(t *testing.T) {
	const n = 8192
	rng := rand.New(rand.NewSource(4))
	patterns := map[string][]int64{}
	for i := int64(0); i < n; i++ {
		patterns["dense"] = append(patterns["dense"], i)
		patterns["random"] = append(patterns["random"], int64(rng.Uint64()))
		patterns["stride 2^40"] = append(patterns["stride 2^40"], i<<40)
	}
	for i := 0; i < n/2; i++ {
		x := int64(rng.Uint64())
		patterns["pairs x, x+2^60"] = append(patterns["pairs x, x+2^60"], x, x+1<<60)
	}
	perKey := map[string]float64{}
	for name, keys := range patterns {
		m := NewIntMap[int64, int64]().Build(keys, keys)
		if m.Len() != n {
			t.Fatalf("%s: %d distinct keys, want %d", name, m.Len(), n)
		}
		perKey[name] = float64(trieBytes(m)) / n
		t.Logf("%s: %.0f B of trie per key", name, perKey[name])
	}
	if perKey["dense"] >= perKey["random"] {
		t.Errorf("dense ids cost %.0f B per key, random ones %.0f", perKey["dense"], perKey["random"])
	}
	for _, name := range []string{"pairs x, x+2^60", "stride 2^40"} {
		if perKey[name] > 3*perKey["random"] {
			t.Errorf("%s: %.0f B per key, over 3× random ids' %.0f", name, perKey[name], perKey["random"])
		}
	}
}
