package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"socialscope/internal/vfs"
)

type rec struct {
	lsn     uint64
	kind    byte
	payload string
}

// collect drains the log in "w" from LSN from with recovery semantics:
// every decodable record, the way OpenDurable replays before it opens
// the log for writing.
func collect(t *testing.T, fsys vfs.FS, from uint64) []rec {
	t.Helper()
	return pollAll(t, NewTailer(fsys, "w", from), DrainConfirm)
}

func TestAppendReplayRoundTripWithRotation(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	// Tiny segments force several rotations over 40 records.
	l, err := Open(fsys, "w", Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var want []rec
	for i := 0; i < 40; i++ {
		payload := fmt.Sprintf("batch-%03d", i)
		lsn, err := l.AppendSync(1, []byte(payload))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn: got %d, want %d", lsn, i+1)
		}
		want = append(want, rec{lsn, 1, payload})
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(l.segs))
	}
	got := collect(t, fsys, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// Replay from the middle.
	mid := collect(t, fsys, 21)
	if len(mid) != 20 || mid[0].lsn != 21 {
		t.Fatalf("replay from 21: len=%d first=%+v", len(mid), mid[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen resumes the sequence exactly.
	l2, err := Open(fsys, "w", Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	if l2.NextLSN() != 41 {
		t.Fatalf("NextLSN after reopen: %d", l2.NextLSN())
	}
	if lsn, err := l2.AppendSync(2, []byte("after")); err != nil || lsn != 41 {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestTornTailHealedOnOpen(t *testing.T) {
	for _, mode := range []vfs.LossMode{vfs.KeepUnsynced, vfs.DropUnsynced} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			fsys := vfs.NewFaultFS(mode)
			fsys.SetWriteChunk(3)
			l, err := Open(fsys, "w", Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := l.AppendSync(1, []byte(fmt.Sprintf("ok-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Crash partway into the next append's write.
			fsys.SetCrashAtOp(fsys.Ops() + 2)
			if _, err := l.AppendSync(1, []byte("torn-record-payload")); !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("want ErrCrashed, got %v", err)
			}
			fsys.Recover()

			l2, err := Open(fsys, "w", Options{})
			if err != nil {
				t.Fatalf("open after crash: %v", err)
			}
			got := collect(t, fsys, 0)
			if len(got) != 5 {
				t.Fatalf("replayed %d records, want 5 (torn tail dropped)", len(got))
			}
			if l2.NextLSN() != 6 {
				t.Fatalf("NextLSN: %d", l2.NextLSN())
			}
			if lsn, err := l2.AppendSync(1, []byte("resumed")); err != nil || lsn != 6 {
				t.Fatalf("append after heal: lsn=%d err=%v", lsn, err)
			}
			if got := collect(t, fsys, 0); len(got) != 6 || got[5].payload != "resumed" {
				t.Fatalf("after resume: %+v", got)
			}
		})
	}
}

func TestCrashDuringRotationHealedOnOpen(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the rotation threshold.
	for i := 0; i < 4; i++ {
		if _, err := l.AppendSync(1, []byte("0123456789abcdef0123")); err != nil {
			t.Fatal(err)
		}
	}
	// The next append rotates first: close the old segment (one op),
	// create the new one (one op), then crash during the new segment's
	// header write, leaving a named-but-headerless segment behind.
	fsys.SetCrashAtOp(fsys.Ops() + 2)
	if _, err := l.AppendSync(1, []byte("x")); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	fsys.Recover()

	l2, err := Open(fsys, "w", Options{SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open after rotation crash: %v", err)
	}
	if got := collect(t, fsys, 0); len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	if lsn, err := l2.AppendSync(1, []byte("resumed")); err != nil || lsn != 5 {
		t.Fatalf("append: lsn=%d err=%v", lsn, err)
	}
}

func TestFailedSyncSelfHeals(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	fsys.SetWriteChunk(1 << 20) // one op per write, so the sync's op index is predictable
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Fail the fsync of the next append: the record's bytes land in the
	// file but it is never acknowledged.
	fsys.FailSyncAtOp(fsys.Ops() + 1)
	if _, err := l.AppendSync(1, []byte("unacked")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The next append reuses the LSN: the unacked record must be gone.
	lsn, err := l.AppendSync(1, []byte("second"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after failed sync: lsn=%d err=%v", lsn, err)
	}
	got := collect(t, fsys, 0)
	if len(got) != 2 || got[1].payload != "second" {
		t.Fatalf("log contents: %+v", got)
	}
}

func TestTruncateThroughDropsCoveredSegments(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nsegs := len(l.segs)
	if nsegs < 3 {
		t.Fatalf("need several segments, got %d", nsegs)
	}
	// A checkpoint covering LSN 1..15 makes earlier segments redundant.
	if err := l.TruncateThrough(15); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) >= nsegs {
		t.Fatalf("no segments removed: %d -> %d", nsegs, len(l.segs))
	}
	got := collect(t, fsys, 16)
	if len(got) != 15 || got[0].lsn != 16 || got[14].lsn != 30 {
		t.Fatalf("replay after truncate: len=%d", len(got))
	}
	// Everything, including the active segment, is covered: the active
	// segment must survive anyway.
	if err := l.TruncateThrough(30); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) != 1 {
		t.Fatalf("want 1 surviving segment, got %d", len(l.segs))
	}
	if lsn, err := l.AppendSync(1, []byte("next")); err != nil || lsn != 31 {
		t.Fatalf("append after full truncate: lsn=%d err=%v", lsn, err)
	}
}

func TestTruncateThroughPartialFailureKeepsReplayable(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	nsegs := len(l.segs)
	if nsegs < 4 {
		t.Fatalf("need >= 4 segments, got %d", nsegs)
	}
	covered := l.segs[nsegs-1].first - 1 // everything below the active segment
	// Fail the SECOND Remove: the first segment is gone, the second
	// survives on disk. The regression was l.segs still naming the
	// removed file, so every later read of the log hard-failed on
	// ErrNotExist.
	fsys.FailAtOp(fsys.Ops() + 1)
	if err := l.TruncateThrough(covered); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(l.segs) != nsegs-1 {
		t.Fatalf("segs after partial truncate: got %d, want %d", len(l.segs), nsegs-1)
	}
	got := collect(t, fsys, l.segs[0].first) // ErrGone if l.segs[0] was removed
	if len(got) == 0 || got[len(got)-1].lsn != 30 {
		t.Fatalf("replay after partial truncate: %d records", len(got))
	}
	if got[0].lsn != l.segs[0].first {
		t.Fatalf("replay starts at %d, surviving segment starts at %d", got[0].lsn, l.segs[0].first)
	}
	// The retry finishes the job.
	if err := l.TruncateThrough(covered); err != nil {
		t.Fatal(err)
	}
	if len(l.segs) != 1 {
		t.Fatalf("want 1 segment after retry, got %d", len(l.segs))
	}
	if lsn, err := l.AppendSync(1, []byte("after")); err != nil || lsn != 31 {
		t.Fatalf("append after retry: lsn=%d err=%v", lsn, err)
	}
}

func TestHealSurfacesCloseError(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	fsys.SetWriteChunk(1 << 20) // one op per write for predictable indices
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Fail the next append's fsync, leaving the log dirty.
	fsys.FailSyncAtOp(fsys.Ops() + 1)
	if _, err := l.AppendSync(1, []byte("unacked")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected from sync, got %v", err)
	}
	sizeBefore := int64(len(fsys.Bytes("w/" + l.segs[0].name)))
	// Now fail the heal's Close of the dirty handle: the heal must give
	// up before truncating, not truncate under a handle whose buffered
	// writes may still land.
	fsys.FailAtOp(fsys.Ops())
	if _, err := l.AppendSync(1, []byte("second")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected from heal close, got %v", err)
	}
	if size := int64(len(fsys.Bytes("w/" + l.segs[0].name))); size != sizeBefore {
		t.Fatalf("segment truncated under a dirty handle: %d -> %d", sizeBefore, size)
	}
	// With the fault gone the next append heals (truncate + reopen) and
	// reuses the LSN of the unacked record.
	lsn, err := l.AppendSync(1, []byte("second"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after recovered heal: lsn=%d err=%v", lsn, err)
	}
	got := collect(t, fsys, 0)
	if len(got) != 2 || got[1].payload != "second" {
		t.Fatalf("log contents: %+v", got)
	}
}

func TestReopenAfterTruncationContinuity(t *testing.T) {
	// Property: for any checkpoint LSN, TruncateThrough + Close + Open
	// preserves the LSN sequence and replays exactly the surviving
	// contiguous suffix.
	const total = 30
	for ckptLSN := uint64(0); ckptLSN <= total; ckptLSN += 5 {
		fsys := vfs.NewFaultFS(vfs.DropUnsynced)
		l, err := Open(fsys, "w", Options{SegmentBytes: 96})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= total; i++ {
			if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.TruncateThrough(ckptLSN); err != nil {
			t.Fatal(err)
		}
		first := l.segs[0].first
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(fsys, "w", Options{SegmentBytes: 96})
		if err != nil {
			t.Fatalf("ckpt=%d: reopen: %v", ckptLSN, err)
		}
		if l2.NextLSN() != total+1 {
			t.Fatalf("ckpt=%d: NextLSN=%d, want %d", ckptLSN, l2.NextLSN(), total+1)
		}
		got := collect(t, fsys, first)
		if len(got) == 0 {
			t.Fatalf("ckpt=%d: nothing replayed", ckptLSN)
		}
		if got[0].lsn != first {
			t.Fatalf("ckpt=%d: replay starts at %d, want %d", ckptLSN, got[0].lsn, first)
		}
		if got[0].lsn > ckptLSN+1 {
			t.Fatalf("ckpt=%d: replay lost records: starts at %d", ckptLSN, got[0].lsn)
		}
		for i := 1; i < len(got); i++ {
			if got[i].lsn != got[i-1].lsn+1 {
				t.Fatalf("ckpt=%d: gap at %d -> %d", ckptLSN, got[i-1].lsn, got[i].lsn)
			}
		}
		if last := got[len(got)-1].lsn; last != total {
			t.Fatalf("ckpt=%d: replay ends at %d, want %d", ckptLSN, last, total)
		}
		if lsn, err := l2.AppendSync(1, []byte("next")); err != nil || lsn != total+1 {
			t.Fatalf("ckpt=%d: append after reopen: lsn=%d err=%v", ckptLSN, lsn, err)
		}
	}
}

func TestMidStreamCorruptionFailsHard(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(l.segs))
	}
	// Flip a payload bit in the middle of the FIRST (non-last) segment.
	name := "w/" + l.segs[0].name
	data := fsys.Bytes(name)
	data[headerLen+frameHeaderLen+1] ^= 0x40
	if err := fsys.Truncate(name, 0); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = NewTailer(fsys, "w", 0).Poll(DrainConfirm, 0, func(uint64, byte, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestFirstLSNSeedsEmptyLog(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{FirstLSN: 100})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.AppendSync(1, []byte("x")); err != nil || lsn != 100 {
		t.Fatalf("lsn=%d err=%v", lsn, err)
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	payload := []byte("some payload bytes")
	frame := AppendRecord(nil, 42, 7, payload)
	lsn, kind, got, n, err := DecodeRecord(frame)
	if err != nil || lsn != 42 || kind != 7 || !bytes.Equal(got, payload) || n != len(frame) {
		t.Fatalf("decode: lsn=%d kind=%d n=%d err=%v", lsn, kind, n, err)
	}
	// Every strict prefix is torn.
	for i := 0; i < len(frame); i++ {
		if _, _, _, _, err := DecodeRecord(frame[:i]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix %d: want ErrTorn, got %v", i, err)
		}
	}
	// Any single bit flip is corrupt (or torn, if it raises the length).
	for i := 0; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 1
		if _, _, _, _, err := DecodeRecord(mut); err == nil {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
}
