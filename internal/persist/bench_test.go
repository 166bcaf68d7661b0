package persist

import "testing"

// BenchmarkSet measures the per-write path-copy cost at several sizes —
// the O(log n) that replaces the O(n) full-map clone on the live path.
func BenchmarkSet(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		m := NewIntMap[int64, int]()
		for i := 0; i < size; i++ {
			m = m.Set(int64(i), i)
		}
		b.Run(benchName("n", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Set(int64(i%size), i)
			}
		})
	}
}

func BenchmarkGet(b *testing.B) {
	for _, size := range []int{1000, 100000} {
		m := NewIntMap[int64, int]()
		for i := 0; i < size; i++ {
			m = m.Set(int64(i), i)
		}
		b.Run(benchName("n", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = m.Get(int64(i % size))
			}
		})
	}
}

// BenchmarkSnapshotVsClone contrasts the O(1) persistent snapshot with
// what the pre-persistent engine paid per Apply batch: cloning the whole
// built-in map.
func BenchmarkSnapshotVsClone(b *testing.B) {
	const size = 100000
	m := NewIntMap[int64, int]()
	ref := make(map[int64]int, size)
	for i := 0; i < size; i++ {
		m = m.Set(int64(i), i)
		ref[int64(i)] = i
	}
	b.Run("persistent-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap := m
			_ = snap.Len()
		}
	})
	b.Run("map-clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := make(map[int64]int, len(ref))
			for k, v := range ref {
				c[k] = v
			}
			_ = len(c)
		}
	})
}

// BenchmarkBulkBuild contrasts three ways to build a map cold: sequential
// persistent Sets (one path copy per write, O(n log n) discarded nodes),
// SetWith under one Edit (claim once, then append in place), and Build
// (one counting pass, then exact-size slabs). b.ReportAllocs makes the
// allocation gap visible in CI's bench smoke.
func BenchmarkBulkBuild(b *testing.B) {
	const size = 100000
	keys := make([]int64, size)
	vals := make([]int, size)
	for j := range keys {
		keys[j], vals[j] = int64(j), j
	}
	b.Run("persistent", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewIntMap[int64, int]()
			for j := 0; j < size; j++ {
				m = m.Set(int64(j), j)
			}
			if m.Len() != size {
				b.Fatal("bad build")
			}
		}
	})
	b.Run("transient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, e := NewIntMap[int64, int](), NewEdit()
			for j := 0; j < size; j++ {
				m = m.SetWith(e, int64(j), j)
			}
			if m.Len() != size {
				b.Fatal("bad build")
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := NewIntMap[int64, int]().Build(keys, vals); m.Len() != size {
				b.Fatal("bad build")
			}
		}
	})
}

func BenchmarkRange(b *testing.B) {
	m := NewIntMap[int64, int]()
	for i := 0; i < 100000; i++ {
		m = m.Set(int64(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		m.Range(func(_ int64, v int) bool {
			sum += v
			return true
		})
	}
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1000000:
		return prefix + "=" + itoa(n/1000000) + "M"
	case n >= 1000:
		return prefix + "=" + itoa(n/1000) + "k"
	}
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
