package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Test codecs: varint ints, length-prefixed strings.

func encInt(dst []byte, v int) []byte { return binary.AppendUvarint(dst, uint64(v)) }

func decInt(src []byte) (int, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, fmt.Errorf("bad varint")
	}
	return int(v), n, nil
}

func encStr(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

func decStr(src []byte) (string, int, error) {
	l, n := binary.Uvarint(src)
	if n <= 0 || l > uint64(len(src)-n) {
		return "", 0, fmt.Errorf("bad string")
	}
	return string(src[n : n+int(l)]), n + int(l), nil
}

// roundTrip encodes m as a full checkpoint and decodes it back.
func roundTrip(t *testing.T, m Map[int, string]) Map[int, string] {
	t.Helper()
	st := NewCkptState[int, string]()
	data, rootID := st.EncodeDelta(nil, m, encInt, encStr)
	var ld CkptLoader[int, string]
	if err := ld.DecodeDelta(data, decInt, decStr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := ld.Map(m, rootID, m.Len())
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return got
}

// entries collects (k, v) pairs in Range order — the canonical
// iteration order a round trip must preserve exactly.
func entries(m Map[int, string]) [][2]any {
	var out [][2]any
	m.Range(func(k int, v string) bool {
		out = append(out, [2]any{k, v})
		return true
	})
	return out
}

func assertSameMap(t *testing.T, want, got Map[int, string]) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len: got %d, want %d", got.Len(), want.Len())
	}
	we, ge := entries(want), entries(got)
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("entry %d in iteration order: got %v, want %v", i, ge[i], we[i])
		}
	}
	want.Range(func(k int, v string) bool {
		if gv, ok := got.Get(k); !ok || gv != v {
			t.Fatalf("Get(%d): got %q,%v want %q", k, gv, ok, v)
		}
		return true
	})
}

func TestCheckpointRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		m := NewIntMap[int, string]()
		n := rng.Intn(400)
		keys := make([]int, 0, n)
		for i := 0; i < n; i++ {
			k := rng.Intn(1000)
			m = m.Set(k, fmt.Sprintf("v%d-%d", k, trial))
			keys = append(keys, k)
		}
		// Random deletions exercise canonical delete shapes.
		for _, k := range keys[:len(keys)/3] {
			if rng.Intn(2) == 0 {
				m = m.Delete(k)
			}
		}
		assertSameMap(t, m, roundTrip(t, m))
	}
}

func TestCheckpointRoundTripCollisions(t *testing.T) {
	// A 4-value hash forces deep slot conflicts and, past maxShift,
	// genuine collision buckets.
	m := NewMap[int, string](func(k int) uint64 { return uint64(k % 4) })
	for i := 0; i < 64; i++ {
		m = m.Set(i, fmt.Sprintf("c%d", i))
	}
	m = m.Delete(12).Delete(40).Delete(3)
	assertSameMap(t, m, roundTrip(t, m))

	// Total collision: everything lives in one bucket.
	one := NewMap[int, string](func(int) uint64 { return 7 })
	for i := 0; i < 20; i++ {
		one = one.Set(i, fmt.Sprintf("b%d", i))
	}
	assertSameMap(t, one, roundTrip(t, one))
}

func TestCheckpointEncodingCanonical(t *testing.T) {
	// Two maps with the same final key set — built in different orders,
	// one via a detour through extra keys since deleted — encode to
	// byte-identical full checkpoints: trie shape is canonical and the
	// emission order is structure-determined.
	a := NewIntMap[int, string]()
	for i := 0; i < 200; i++ {
		a = a.Set(i, fmt.Sprintf("v%d", i))
	}
	b := NewIntMap[int, string]()
	for i := 199; i >= 0; i-- {
		b = b.Set(i, fmt.Sprintf("v%d", i))
	}
	for i := 500; i < 600; i++ {
		b = b.Set(i, "doomed")
	}
	for i := 500; i < 600; i++ {
		b = b.Delete(i)
	}
	da, _ := NewCkptState[int, string]().EncodeDelta(nil, a, encInt, encStr)
	db, _ := NewCkptState[int, string]().EncodeDelta(nil, b, encInt, encStr)
	if !bytes.Equal(da, db) {
		t.Fatalf("canonical encoding violated: %d vs %d bytes", len(da), len(db))
	}
}

func TestCheckpointDeltaChain(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := NewCkptState[int, string]()
	var ld CkptLoader[int, string]

	m := NewIntMap[int, string]()
	for i := 0; i < 500; i++ {
		m = m.Set(i, fmt.Sprintf("base%d", i))
	}
	full, _ := st.EncodeDelta(nil, m, encInt, encStr)
	if err := ld.DecodeDelta(full, decInt, decStr); err != nil {
		t.Fatal(err)
	}

	// A chain of small edit batches: each delta must decode on top of
	// the accumulated table and reproduce the evolving map exactly.
	for step := 0; step < 10; step++ {
		for i := 0; i < 10; i++ {
			k := rng.Intn(600)
			if rng.Intn(5) == 0 {
				m = m.Delete(k)
			} else {
				m = m.Set(k, fmt.Sprintf("s%d-%d", step, k))
			}
		}
		delta, root := st.EncodeDelta(nil, m, encInt, encStr)
		if len(delta) >= len(full)/2 {
			t.Fatalf("step %d: delta %dB not small vs full %dB", step, len(delta), len(full))
		}
		if err := ld.DecodeDelta(delta, decInt, decStr); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		got, err := ld.Map(m, root, m.Len())
		if err != nil {
			t.Fatal(err)
		}
		assertSameMap(t, m, got)
	}
	if st.Emitted() != ld.Decoded() {
		t.Fatalf("id streams diverged: emitted %d, decoded %d", st.Emitted(), ld.Decoded())
	}
}

func TestCheckpointUnchangedMapEmitsNothing(t *testing.T) {
	st := NewCkptState[int, string]()
	m := NewIntMap[int, string]()
	for i := 0; i < 100; i++ {
		m = m.Set(i, "x")
	}
	_, root1 := st.EncodeDelta(nil, m, encInt, encStr)
	delta, root2 := st.EncodeDelta(nil, m, encInt, encStr)
	if len(delta) != 0 || root1 != root2 {
		t.Fatalf("unchanged map re-emitted %d bytes, roots %d/%d", len(delta), root1, root2)
	}
}

func TestCheckpointEmptyMap(t *testing.T) {
	m := NewIntMap[int, string]()
	st := NewCkptState[int, string]()
	data, rootID := st.EncodeDelta(nil, m, encInt, encStr)
	if len(data) != 0 || rootID != 0 {
		t.Fatalf("empty map: %d bytes, root %d", len(data), rootID)
	}
	var ld CkptLoader[int, string]
	got, err := ld.Map(m, 0, 0)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty decode: %v len=%d", err, got.Len())
	}
	if _, err := ld.Map(m, 0, 5); err == nil {
		t.Fatal("size/root mismatch accepted")
	}
}

func TestCheckpointDecodeRejectsGarbage(t *testing.T) {
	m := NewIntMap[int, string]().Set(1, "a").Set(2, "b").Set(900, "c")
	st := NewCkptState[int, string]()
	data, _ := st.EncodeDelta(nil, m, encInt, encStr)
	// Truncations and single-byte mutations must error or decode
	// cleanly — never panic — and dangling child/root ids are caught.
	for i := 0; i < len(data); i++ {
		var ld CkptLoader[int, string]
		_ = ld.DecodeDelta(data[:i], decInt, decStr)
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		var ld2 CkptLoader[int, string]
		_ = ld2.DecodeDelta(mut, decInt, decStr)
	}
	var ld CkptLoader[int, string]
	if err := ld.DecodeDelta(data, decInt, decStr); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Map(m, ld.Decoded()+1, m.Len()); err == nil {
		t.Fatal("dangling root id accepted")
	}
}

func TestCheckpointTransientBuiltMapRoundTrips(t *testing.T) {
	// Maps built through the transient path, or by Build, must checkpoint
	// identically to persistently-built ones: tries are what they are.
	m, e := NewIntMap[int, string](), NewEdit()
	p := NewIntMap[int, string]()
	keys := make([]int, 300)
	vals := make([]string, 300)
	for i := 0; i < 300; i++ {
		m = m.SetWith(e, i, fmt.Sprintf("t%d", i))
		p = p.Set(i, fmt.Sprintf("t%d", i))
		keys[i], vals[i] = i, fmt.Sprintf("t%d", i)
	}
	b := NewIntMap[int, string]().Build(keys, vals)
	dm, _ := NewCkptState[int, string]().EncodeDelta(nil, m, encInt, encStr)
	dp, _ := NewCkptState[int, string]().EncodeDelta(nil, p, encInt, encStr)
	db, _ := NewCkptState[int, string]().EncodeDelta(nil, b, encInt, encStr)
	if !bytes.Equal(dm, dp) {
		t.Fatal("transient-built map encodes differently")
	}
	if !bytes.Equal(db, dp) {
		t.Fatal("Build-built map encodes differently")
	}
	assertSameMap(t, m, roundTrip(t, m))
	assertSameMap(t, b, roundTrip(t, b))
}

// TestCheckpointMapRejectsUnservableTries: node records that decode
// cleanly but describe a trie lookups cannot serve, or a size the trie
// does not hold, are rejected when the map is materialized.
func TestCheckpointMapRejectsUnservableTries(t *testing.T) {
	m := NewIntMap[int, string]()
	slot := func(k int, shift uint) uint64 { return (m.hash(k) >> shift) & branchMask }
	branch := func(datamap, nodemap uint64, rest ...byte) []byte {
		b := binary.AppendUvarint([]byte{0x00}, datamap)
		return append(binary.AppendUvarint(b, nodemap), rest...)
	}
	entry := func(k int) []byte { return encStr(encInt(nil, k), "v") }
	right := branch(1<<slot(1, 0), 0, entry(1)...)
	// Key 1 on its own hash path down to the last level, where its slot
	// is 16 past the 4 bits left: slot<<60 wraps to the right bits.
	deep := branch(1<<(slot(1, maxShift)+16), 0, entry(1)...)
	for id, shift := byte(1), uint(maxShift); shift > 0; id, shift = id+1, shift-branchBits {
		deep = append(deep, branch(0, 1<<slot(1, shift-branchBits), id)...)
	}
	for _, c := range []struct {
		name string
		data []byte
		size int
	}{
		{"size above the entries", right, 2},
		{"size below the entries", right, 0},
		{"size past any allocation", right, 1 << 62},
		{"entry in the wrong slot", branch(1<<((slot(1, 0)+1)%64), 0, entry(1)...), 1},
		{"empty branch", branch(0, 0), 0},
		// Record 1 is key 1's leaf; record 2 points at it from a slot
		// key 1's hash does not take.
		{"child off its hash path", append(branch(1<<slot(1, 6), 0, entry(1)...),
			branch(0, 1<<((slot(1, 0)+1)%64), 1)...), 1},
		{"collision bucket at the root", append([]byte{0x01, 1}, entry(1)...), 1},
		{"slot past the hash's last bit", deep, 1},
	} {
		var ld CkptLoader[int, string]
		if err := ld.DecodeDelta(c.data, decInt, decStr); err != nil {
			t.Fatalf("%s: records rejected before Map: %v", c.name, err)
		}
		if _, err := ld.Map(m, ld.Decoded(), c.size); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	var ld CkptLoader[int, string]
	if err := ld.DecodeDelta(right, decInt, decStr); err != nil {
		t.Fatal(err)
	}
	if got, err := ld.Map(m, 1, 1); err != nil || got.At(1) != "v" {
		t.Fatalf("well-formed record: %v, %q", err, got.At(1))
	}
}

// TestCheckpointDecodeExactSize: every node a checkpoint decodes is
// allocated at its final size, cap == len, as Build lays a cold trie out,
// so a loaded map holds no spare slots, and it is the trie that was saved.
func TestCheckpointDecodeExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewIntMap[int, string]()
	for i := 0; i < 5000; i++ {
		m = m.Set(rng.Intn(1<<20), fmt.Sprintf("v%d", i))
	}
	coll := NewMap[int, string](func(k int) uint64 { return uint64(k % 3) })
	for i := 0; i < 200; i++ {
		coll = coll.Set(i, fmt.Sprintf("c%d", i))
	}
	for _, m := range []Map[int, string]{m, coll} {
		got := roundTrip(t, m)
		if err := sameShape(got.root, m.root, "root"); err != nil {
			t.Fatal(err)
		}
		if err := exactSize(got.root); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointDecodeCapsCollisionCount: a collision record claiming as
// many entries as the whole record has bytes is refused when its entries
// run out, and the decoder allocated for no more entries than the bytes
// after the count could hold at two or more each.
func TestCheckpointDecodeCapsCollisionCount(t *testing.T) {
	const entries = 1 << 15
	body := bytes.Repeat([]byte{5, 0}, entries) // key 5, value ""
	data := []byte{0x01}
	// The count is the record's own length, which takes three bytes.
	data = binary.AppendUvarint(data, uint64(1+3+len(body)))
	data = append(data, body...)
	if got := binary.PutUvarint(make([]byte, 10), uint64(len(data))); got != 3 || len(data) != 1+3+len(body) {
		t.Fatalf("crafted record is %d bytes with a %d-byte count", len(data), got)
	}
	var ld CkptLoader[int, string]
	if err := ld.DecodeDelta(data, decInt, decStr); err == nil {
		t.Fatal("a collision count past its entries decoded")
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var ld CkptLoader[int, string]
		_ = ld.DecodeDelta(data, decInt, decStr)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	// Keys and values of the entries the bytes could hold, plus the error.
	bound := uint64(entries*(8+16) + 4096)
	if per > bound {
		t.Fatalf("decoding a count of %d allocated %d B, over the %d B its %d entries' bytes allow",
			len(data), per, bound, entries)
	}
}
