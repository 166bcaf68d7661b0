package wal

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"socialscope/internal/vfs"
)

// FuzzWALDecode feeds arbitrary bytes — truncations, bit flips, pure
// garbage — to the record decoder. The decoder must never panic and
// must never return a record whose frame fails its own CRC: whenever it
// accepts a record, re-encoding the decoded fields must reproduce the
// consumed bytes exactly.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, 1, 1, []byte("hello")))
	f.Add(AppendRecord(nil, 0, 0, nil))
	two := AppendRecord(AppendRecord(nil, 7, 2, []byte("first")), 8, 1, []byte("second"))
	f.Add(two)
	f.Add(two[:len(two)-3]) // torn tail
	flipped := append([]byte(nil), two...)
	flipped[9] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length claim
	f.Add(bytes.Repeat([]byte{0xa5}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, kind, payload, n, err := DecodeRecord(data)
		if err != nil {
			if err != ErrTorn && err != ErrCorrupt {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if n < frameHeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Accepted ⇒ CRC-exact: the frame must be reproducible from the
		// decoded fields alone.
		if re := AppendRecord(nil, lsn, kind, payload); !bytes.Equal(re, data[:n]) {
			t.Fatalf("accepted record does not round-trip: lsn=%d kind=%d len=%d", lsn, kind, len(payload))
		}
	})
}

// FuzzDrainMatchesOpen pins the invariant recovery rests on: a Tailer
// drain with DrainConfirm and Open on the same directory agree on where
// the log ends. Fuzz bytes are appended to the last segment of a valid
// multi-segment log — a torn tail, garbage, a forged record — and then
// either both the drain and Open (seeded at the drained position)
// succeed with the drained position equal to the log's next LSN, or
// one of them returns an error. Neither may panic.
func FuzzDrainMatchesOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, 13, 1, []byte("next")))  // a complete unacknowledged record
	f.Add(AppendRecord(nil, 13, 1, []byte("x"))[:9]) // torn mid-frame
	f.Add(AppendRecord(nil, 99, 1, []byte("skip")))  // wrong LSN
	f.Add(append(AppendRecord(nil, 13, 1, []byte("a")), 0xff, 0x00))
	f.Add(bytes.Repeat([]byte{0xa5}, 32))

	base := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(base, "w", Options{SegmentBytes: 64})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			f.Fatal(err)
		}
	}
	last := "w/" + l.segs[len(l.segs)-1].name
	if len(l.segs) < 3 {
		f.Fatalf("want several segments, got %d", len(l.segs))
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, tail []byte) {
		fsys := base.Clone()
		fh, err := fsys.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(tail); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}

		tl := NewTailer(fsys, "w", 1)
		if _, err := tl.Poll(DrainConfirm, 0, func(uint64, byte, []byte) error { return nil }); err != nil {
			return
		}
		drained := tl.NextLSN()
		l2, err := Open(fsys, "w", Options{SegmentBytes: 64, FirstLSN: drained})
		if err != nil {
			return
		}
		defer l2.Close()
		if next := l2.NextLSN(); next != drained {
			t.Fatalf("drain ended at LSN %d, Open resumes at %d", drained, next)
		}
	})
}
