package wal

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"socialscope/internal/vfs"
)

func pollAll(t *testing.T, tl *Tailer, confirm uint64) []rec {
	t.Helper()
	var got []rec
	_, err := tl.Poll(confirm, 0, func(lsn uint64, kind byte, payload []byte) error {
		got = append(got, rec{lsn, kind, string(payload)})
		return nil
	})
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	return got
}

func TestTailerFollowsLiveAppends(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	tl := NewTailer(fsys, "w", 0)

	// Nothing exists yet: a poll is a quiet no-op.
	if got := pollAll(t, tl, 0); len(got) != 0 {
		t.Fatalf("poll on missing dir delivered %d records", len(got))
	}

	l, err := Open(fsys, "w", Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var want []rec
	for i := 1; i <= 10; i++ {
		payload := fmt.Sprintf("batch-%03d", i)
		if _, err := l.AppendSync(1, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec{uint64(i), 1, payload})

		got := pollAll(t, tl, 0)
		// The newest record has no bytes after it and no confirmation:
		// it must be withheld until the next append lands behind it.
		if len(got) != 1 && !(i == 1 && len(got) == 0) {
			t.Fatalf("append %d: delivered %d records, want the previous one", i, len(got))
		}
		if len(got) == 1 && got[0] != want[i-2] {
			t.Fatalf("append %d: got %+v, want %+v", i, got[0], want[i-2])
		}
	}
	if tl.NextLSN() != 10 {
		t.Fatalf("NextLSN=%d, want 10 (record 10 unconfirmed)", tl.NextLSN())
	}
	// An external confirmation (a checkpoint covering LSN 10) releases it.
	if got := pollAll(t, tl, 10); len(got) != 1 || got[0] != want[9] {
		t.Fatalf("confirmed poll: %+v", got)
	}
	if tl.NextLSN() != 11 {
		t.Fatalf("NextLSN=%d after confirmed poll", tl.NextLSN())
	}
}

func TestTailerPicksUpRotations(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(fsys, "w", 0)
	var got []rec
	for i := 1; i <= 30; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
		got = append(got, pollAll(t, tl, 0)...)
	}
	if len(l.segs) < 3 {
		t.Fatalf("expected rotations, got %d segments", len(l.segs))
	}
	// Everything but the final unconfirmed record arrived, in order.
	if len(got) != 29 {
		t.Fatalf("delivered %d records, want 29", len(got))
	}
	for i, r := range got {
		if r.lsn != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.lsn)
		}
	}
	// A cold tailer starting from the middle sees the same suffix.
	tl2 := NewTailer(fsys, "w", 16)
	mid := pollAll(t, tl2, 0)
	if len(mid) != 14 || mid[0].lsn != 16 || mid[13].lsn != 29 {
		t.Fatalf("cold tail from 16: len=%d", len(mid))
	}
}

func TestTailerWithholdsUnackedRecordUntilSafe(t *testing.T) {
	// The divergence hazard: a record whose fsync failed sits complete at
	// the tail, and the leader later truncates and rewrites the same LSN
	// with a different payload. A follower that replayed the first
	// incarnation would fork history.
	fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
	fsys.SetWriteChunk(1 << 20)
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(fsys, "w", 0)
	if _, err := l.AppendSync(1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncAtOp(fsys.Ops() + 1)
	if _, err := l.AppendSync(1, []byte("retracted")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The unacked record is complete on disk — and must not be delivered:
	// record 1 is confirmed by the bytes behind it, record 2 by nothing.
	got := pollAll(t, tl, 0)
	if len(got) != 1 || got[0].payload != "acked" {
		t.Fatalf("poll over unacked tail: %+v", got)
	}
	// The leader heals and writes a different record 2.
	if _, err := l.AppendSync(1, []byte("replacement")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("third")); err != nil {
		t.Fatal(err)
	}
	got = pollAll(t, tl, 0)
	if len(got) != 1 || got[0] != (rec{2, 1, "replacement"}) {
		t.Fatalf("after heal: %+v", got)
	}
}

func TestTailerDrainDeliversUnackedTail(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
	fsys.SetWriteChunk(1 << 20)
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncAtOp(fsys.Ops() + 1)
	if _, err := l.AppendSync(1, []byte("unacked")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// Leader dies here. Promotion drains: the complete-but-unacked record
	// is exactly what crash recovery would replay, so it arrives.
	tl := NewTailer(fsys, "w", 0)
	got := pollAll(t, tl, DrainConfirm)
	if len(got) != 2 || got[1] != (rec{2, 1, "unacked"}) {
		t.Fatalf("drain: %+v", got)
	}
	if tl.NextLSN() != 3 {
		t.Fatalf("NextLSN after drain: %d", tl.NextLSN())
	}
}

func TestTailerGoneAfterTruncation(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateThrough(l.segs[len(l.segs)-1].first - 1); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(fsys, "w", 1)
	if _, err := tl.Poll(0, 0, func(uint64, byte, []byte) error { return nil }); !errors.Is(err, ErrGone) {
		t.Fatalf("want ErrGone, got %v", err)
	}
	// A tailer positioned inside the surviving suffix is unaffected.
	tl2 := NewTailer(fsys, "w", l.segs[0].first)
	if got := pollAll(t, tl2, 0); len(got) == 0 || got[len(got)-1].lsn != 29 {
		t.Fatalf("tail of surviving suffix: %d records", len(got))
	}
}

func TestTailerTornTailCompletesAcrossPolls(t *testing.T) {
	// A torn write at the tail must park the tailer, not corrupt it, and
	// the same poll position must pick the record up once it completes.
	fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
	fsys.SetWriteChunk(3)
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendSync(1, []byte("first-record")); err != nil {
		t.Fatal(err)
	}
	tl := NewTailer(fsys, "w", 0)

	// Crash the leader mid-write: a few chunks of record 2 land.
	fsys.SetCrashAtOp(fsys.Ops() + 2)
	if _, err := l.AppendSync(1, []byte("torn-record-payload")); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	fsys.Recover()

	got := pollAll(t, tl, 0)
	if len(got) != 1 || got[0].lsn != 1 {
		t.Fatalf("poll over torn tail: %+v", got)
	}
	// The new leader heals the torn bytes and appends records 2 and 3.
	l2, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.AppendSync(1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.AppendSync(1, []byte("third")); err != nil {
		t.Fatal(err)
	}
	got = pollAll(t, tl, 0)
	if len(got) != 1 || got[0] != (rec{2, 1, "second"}) {
		t.Fatalf("after heal: %+v", got)
	}
}

func TestTailerMaxBudgetResumes(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tl := NewTailer(fsys, "w", 0)
	var got []rec
	for {
		n, err := tl.Poll(0, 3, func(lsn uint64, kind byte, payload []byte) error {
			got = append(got, rec{lsn, kind, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if n > 3 {
			t.Fatalf("poll delivered %d > max 3", n)
		}
	}
	if len(got) != 19 {
		t.Fatalf("delivered %d records across budgeted polls, want 19", len(got))
	}
	for i, r := range got {
		if r.lsn != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.lsn)
		}
	}
}

// TestTailerPollReadsOnlyNewBytes: a caught-up tailer on a large active
// segment reads what was appended since its last poll, not the segment
// again — a follower polls every few milliseconds, and re-reading made each
// poll allocate the whole segment.
func TestTailerPollReadsOnlyNewBytes(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	fsys.SetWriteChunk(1 << 20)
	l, err := Open(fsys, "w", Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := 0; i < 1024; i++ {
		if _, err := l.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	tl := NewTailer(fsys, "w", 0)
	if got := pollAll(t, tl, 0); len(got) != 1023 {
		t.Fatalf("first poll delivered %d records, want 1023", len(got))
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendSync(1, payload); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := pollAll(t, tl, 0)
		runtime.ReadMemStats(&after)
		if len(got) != 1 || got[0].lsn != uint64(1024+i) {
			t.Fatalf("poll %d delivered %+v", i, got)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Fatalf("poll %d after one append allocated %d bytes over a 1 MB segment", i, alloc)
		}
	}
}

// TestTailerRescansSegmentShorterThanOffset: should the active segment ever
// be shorter than the resume offset, the tailer rescans it from the header
// instead of reading past its end, delivering nothing twice.
func TestTailerRescansSegmentShorterThanOffset(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	l, err := Open(fsys, "w", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 1; i <= 5; i++ {
		if _, err := l.AppendSync(1, []byte(fmt.Sprintf("r-%d", i))); err != nil {
			t.Fatal(err)
		}
		size, err := fsys.Size("w/" + l.segs[0].name)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, size)
	}
	tl := NewTailer(fsys, "w", 0)
	if got := pollAll(t, tl, 0); len(got) != 4 {
		t.Fatalf("delivered %d records, want 4", len(got))
	}
	if err := fsys.Truncate("w/"+l.segs[0].name, sizes[1]); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, tl, 0); len(got) != 0 {
		t.Fatalf("rescan redelivered %+v", got)
	}
	if tl.NextLSN() != 5 || tl.off != int(sizes[1]) {
		t.Fatalf("after rescan NextLSN=%d off=%d, want 5 and %d (the segment's end)", tl.NextLSN(), tl.off, sizes[1])
	}
}
