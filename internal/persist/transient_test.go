package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// model is what a Map must hold after a sequence of writes: its entries,
// and for each key the write that last made it present, which orders a
// collision bucket.
type model[K comparable, V any] struct {
	vals map[K]V
	born map[K]int
	next int
}

func newModel[K comparable, V any]() *model[K, V] {
	return &model[K, V]{vals: make(map[K]V), born: make(map[K]int)}
}

func (md *model[K, V]) set(k K, v V) {
	if _, ok := md.vals[k]; !ok {
		md.born[k] = md.next
		md.next++
	}
	md.vals[k] = v
}

func (md *model[K, V]) del(k K) {
	delete(md.vals, k)
	delete(md.born, k)
}

func (md *model[K, V]) clone() *model[K, V] {
	return &model[K, V]{vals: maps.Clone(md.vals), born: maps.Clone(md.born), next: md.next}
}

// checkModel requires m to hold exactly md's entries, in the trie Build
// lays out for them, collision buckets in the order their keys arrived.
// Build shares no code with the writer, so it is the writer's reference
// for shape.
func checkModel[K comparable, V comparable](m Map[K, V], md *model[K, V]) error {
	if m.Len() != len(md.vals) {
		return fmt.Errorf("Len %d, want %d", m.Len(), len(md.vals))
	}
	keys := slices.SortedFunc(maps.Keys(md.vals), func(a, b K) int { return cmp.Compare(md.born[a], md.born[b]) })
	vals := make([]V, len(keys))
	for i, k := range keys {
		vals[i] = md.vals[k]
		if v, ok := m.Get(k); !ok || v != vals[i] {
			return fmt.Errorf("Get(%v) = %v, %v; want %v", k, v, ok, vals[i])
		}
	}
	return sameShape(m.root, NewMap[K, V](m.hash).Build(keys, vals).root, "root")
}

// TestTransientEquivalence is the contract test the writer lives under:
// any interleaving of SetWith/DeleteWith under one Edit must observably
// equal the same ops through Set/Delete (and a built-in map), including
// the canonical trie shape — checked through iteration order — and Len,
// and must end node for node in the trie Build lays out for the
// surviving entries.
func TestTransientEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		p := NewIntMap[int64, int]()
		m, e := NewIntMap[int64, int](), NewEdit()
		ref := make(map[int64]int)
		md := newModel[int64, int]()
		const ops = 8000
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(1500))
			switch rng.Intn(3) {
			case 0, 1:
				p = p.Set(k, i)
				m = m.SetWith(e, k, i)
				ref[k] = i
				md.set(k, i)
			case 2:
				p = p.Delete(k)
				m = m.DeleteWith(e, k)
				delete(ref, k)
				md.del(k)
			}
			if p.Len() != m.Len() {
				t.Fatalf("seed %d op %d: persistent Len %d != transient Len %d",
					seed, i, p.Len(), m.Len())
			}
		}
		if !reflect.DeepEqual(p.Keys(), m.Keys()) {
			t.Fatalf("seed %d: iteration order diverged — trie shapes differ", seed)
		}
		if m.Len() != len(ref) {
			t.Fatalf("seed %d: Len %d, want %d", seed, m.Len(), len(ref))
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				t.Fatalf("seed %d: Get(%d) = %d, %v; want %d", seed, k, got, ok, v)
			}
		}
		for name, got := range map[string]Map[int64, int]{"SetWith": m, "Set": p} {
			if err := checkModel(got, md); err != nil {
				t.Fatalf("seed %d, %s chain against Build: %v", seed, name, err)
			}
		}
	}
}

// TestTransientCollisions drives the equivalence property through the
// collision-bucket paths by forcing every key onto one hash, and holds
// both chains to Build's bucket, whose entries keep the order their keys
// last arrived in.
func TestTransientCollisions(t *testing.T) {
	badHash := func(int) uint64 { return 42 }
	p := NewMap[int, int](badHash)
	m, e := NewMap[int, int](badHash), NewEdit()
	ref := make(map[int]int)
	md := newModel[int, int]()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		k := rng.Intn(150)
		if rng.Intn(3) == 0 {
			p = p.Delete(k)
			m = m.DeleteWith(e, k)
			delete(ref, k)
			md.del(k)
		} else {
			p = p.Set(k, i)
			m = m.SetWith(e, k, i)
			ref[k] = i
			md.set(k, i)
		}
	}
	if m.Len() != len(ref) || p.Len() != len(ref) {
		t.Fatalf("Len: transient %d persistent %d ref %d", m.Len(), p.Len(), len(ref))
	}
	for k, v := range ref {
		if got := m.At(k); got != v {
			t.Fatalf("At(%d) = %d, want %d", k, got, v)
		}
	}
	for name, got := range map[string]Map[int, int]{"SetWith": m, "Set": p} {
		if err := checkModel(got, md); err != nil {
			t.Fatalf("%s chain against Build: %v", name, err)
		}
	}
}

// FuzzWritesMatchBuild decodes the input as a program of writes over
// 16-bit keys in one of fuzzMap's modes: Set, Delete, SetWith and
// DeleteWith under the current Edit, a fresh Edit, and a retained
// snapshot (which also moves to a fresh Edit, closing the window, as the
// transient contract requires before a Map is shared). Every Map it
// produced must hold its model's entries in the trie Build lays out —
// the final one and each snapshot, checked after all later writes.
func FuzzWritesMatchBuild(f *testing.F) {
	f.Add([]byte{}, uint8(64))
	f.Add([]byte{0, 1, 0, 2, 1, 0, 5, 0, 0, 3, 1, 0}, uint8(0))
	f.Add([]byte{2, 1, 0, 2, 2, 0, 5, 0, 0, 3, 1, 0, 2, 1, 0, 4, 0, 0, 2, 3, 0}, uint8(3))
	f.Add([]byte{2, 1, 0, 2, 2, 0, 2, 17, 0, 2, 1, 0x20, 5, 0, 0, 3, 1, 0, 2, 0xff, 0x63, 3, 1, 0x20}, uint8(65))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		empty, key := fuzzMap(mode)
		type snapshot struct {
			m  Map[int64, int]
			md *model[int64, int]
		}
		const maxSnaps = 16 // each costs a model copy and a Build
		var snaps []snapshot
		m, e, md := empty, NewEdit(), newModel[int64, int]()
		for i := 0; i+2 < len(data); i += 3 {
			k := key(binary.LittleEndian.Uint16(data[i+1:]))
			switch data[i] % 6 {
			case 0:
				m = m.Set(k, i)
				md.set(k, i)
			case 1:
				m = m.Delete(k)
				md.del(k)
			case 2:
				m = m.SetWith(e, k, i)
				md.set(k, i)
			case 3:
				m = m.DeleteWith(e, k)
				md.del(k)
			case 4:
				e = NewEdit()
			case 5:
				if len(snaps) < maxSnaps {
					snaps = append(snaps, snapshot{m, md.clone()})
				}
				e = NewEdit()
			}
		}
		if err := checkModel(m, md); err != nil {
			t.Fatalf("final map: %v", err)
		}
		for i, s := range snaps {
			if err := checkModel(s.m, s.md); err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
		}
	})
}

// TestTransientSnapshotIsolation is the safety property the bulk paths
// rely on: no persistent snapshot — the base a window was opened over, or
// any Map a closed window produced — ever observes a later window's edits.
func TestTransientSnapshotIsolation(t *testing.T) {
	base := NewIntMap[int, int]()
	for i := 0; i < 3000; i++ {
		base = base.Set(i, i*7)
	}
	m, e := base, NewEdit()
	for i := 0; i < 3000; i += 2 {
		m = m.DeleteWith(e, i)
	}
	mid := m              // close the window: a checkpoint...
	m, e = mid, NewEdit() // ...and keep building from it in another
	for i := 5000; i < 9000; i++ {
		m = m.SetWith(e, i, -i)
	}
	for i := 1; i < 3000; i += 2 {
		m = m.SetWith(e, i, 0)
	}
	final := m

	if base.Len() != 3000 {
		t.Fatalf("base Len changed to %d", base.Len())
	}
	for i := 0; i < 3000; i++ {
		if got := base.At(i); got != i*7 {
			t.Fatalf("base entry %d = %d, want %d (transient edit leaked)", i, got, i*7)
		}
	}
	if mid.Len() != 1500 {
		t.Fatalf("sealed checkpoint Len changed to %d", mid.Len())
	}
	mid.Range(func(k, v int) bool {
		if k%2 == 0 || v != k*7 {
			t.Fatalf("sealed checkpoint entry (%d,%d) corrupted by later transient", k, v)
		}
		return true
	})
	if final.Len() != 1500+4000 {
		t.Fatalf("final Len = %d", final.Len())
	}
}

// TestTransientSealedByNewEdit: a Map handed out of a window is sealed as
// soon as its owner moves to a fresh Edit — writes under the new token
// copy instead of reaching it, even over the nodes the old window owned.
func TestTransientSealedByNewEdit(t *testing.T) {
	e := NewEdit()
	sealed := NewIntMap[int, int]().SetWith(e, 1, 1)
	next := NewEdit()
	m := sealed.SetWith(next, 2, 2).DeleteWith(next, 1).SetWith(next, 3, 3)
	if sealed.Len() != 1 || sealed.At(1) != 1 || sealed.Has(2) || sealed.Has(3) {
		t.Fatalf("a write under a new Edit reached the sealed Map: len=%d", sealed.Len())
	}
	if m.Len() != 2 || m.Has(1) || m.At(2) != 2 || m.At(3) != 3 {
		t.Fatalf("the new window's Map is wrong: len=%d", m.Len())
	}
}

// TestSealedSafeToShare builds maps in a window, closes it, and hands them
// to concurrent readers while a sibling window keeps writing over them —
// run under -race this proves closing really does end in-place mutation
// of anything a reader can reach.
func TestSealedSafeToShare(t *testing.T) {
	sealed, e := NewIntMap[int, int](), NewEdit()
	for i := 0; i < 4096; i++ {
		sealed = sealed.SetWith(e, i, i)
	}

	// A second window over the sealed map writes concurrently with the
	// readers below; claim-on-first-touch must keep them disjoint.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, e2 := sealed, NewEdit()
		for i := 0; i < 4096; i++ {
			m = m.SetWith(e2, i, -i)
			m = m.SetWith(e2, i+10000, i)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := 0
			sealed.Range(func(_, v int) bool {
				sum += v
				return true
			})
			for i := 0; i < 4096; i++ {
				if got := sealed.At(i); got != i {
					t.Errorf("sealed map entry %d = %d", i, got)
					return
				}
			}
			_ = sum
		}()
	}
	wg.Wait()
}

// TestTransientFromPopulatedBase checks claim-on-first-touch against a
// shared base: repeated writes into one region must converge to in-place
// mutation while the base stays whole.
func TestTransientFromPopulatedBase(t *testing.T) {
	base := NewStringMap[int]()
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		base = base.Set(k, 1)
	}
	m, e := base, NewEdit()
	for i := 0; i < 100; i++ {
		m = m.SetWith(e, "a", i)
		m = m.SetWith(e, "z", i)
	}
	if m.At("a") != 99 || m.At("z") != 99 || m.Len() != 6 {
		t.Fatalf("transient result wrong: a=%d z=%d len=%d", m.At("a"), m.At("z"), m.Len())
	}
	if base.At("a") != 1 || base.Has("z") || base.Len() != 5 {
		t.Fatalf("base observed transient edits: a=%d has(z)=%v len=%d",
			base.At("a"), base.Has("z"), base.Len())
	}
}

// TestTransientReads: reads of a Map mid-window see the window's writes.
func TestTransientReads(t *testing.T) {
	m, e := NewIntMap[int, string](), NewEdit()
	m = m.SetWith(e, 1, "one")
	m = m.SetWith(e, 2, "two")
	m = m.DeleteWith(e, 1)
	if m.Has(1) || !m.Has(2) || m.Len() != 1 {
		t.Fatalf("transient reads wrong: has1=%v has2=%v len=%d", m.Has(1), m.Has(2), m.Len())
	}
	if v, ok := m.Get(2); !ok || v != "two" {
		t.Fatalf("Get(2) = %q, %v", v, ok)
	}
	n := 0
	m.Range(func(int, string) bool { n++; return true })
	if n != 1 {
		t.Fatalf("Range visited %d entries", n)
	}
	if m.At(2) != "two" {
		t.Fatalf("At(2) = %q", m.At(2))
	}
}

// TestSetWithNilEditIsSet: the embedding API with no open window must be
// exactly the persistent path.
func TestSetWithNilEditIsSet(t *testing.T) {
	m := NewIntMap[int, int]()
	m2 := m.SetWith(nil, 1, 10).SetWith(nil, 2, 20).DeleteWith(nil, 1)
	if m.Len() != 0 || m2.Len() != 1 || m2.At(2) != 20 {
		t.Fatalf("nil-edit path diverged: base=%d new=%d", m.Len(), m2.Len())
	}
}

// TestDisableTransients: the benchmark escape hatch must leave behavior
// identical while routing everything through the persistent path.
func TestDisableTransients(t *testing.T) {
	DisableTransients = true
	defer func() { DisableTransients = false }()
	m, e := NewIntMap[int, int](), NewEdit()
	for i := 0; i < 500; i++ {
		m = m.SetWith(e, i, i)
	}
	m = m.DeleteWith(e, 100)
	if m.Len() != 499 || m.Has(100) || m.At(3) != 3 {
		t.Fatalf("DisableTransients changed behavior: len=%d", m.Len())
	}
	if m.root.edit != nil {
		t.Fatal("DisableTransients: a write stamped its Edit on a node")
	}
}
