package wal

// Tailing: the follower-side read path over a live WAL directory. A
// Tailer owns no lock on the log — it may run in a different process
// than the leader — and works purely from the directory contents,
// re-reading the active segment as the leader fsyncs new records,
// picking up rotations from new wal-*.seg names, and tolerating a torn
// tail that a later poll sees completed.
//
// The delicate part is the leader's heal path: a record whose fsync
// failed may sit complete at the tail of the active segment and later
// be truncated away and rewritten — same LSN, different payload. A
// follower that replayed the first incarnation would diverge silently.
// The leader's append discipline makes this detectable from the bytes
// alone: appends are serialized and a failed append is healed
// (truncated) before the next one writes, so
//
//	bytes exist beyond record k's frame  =>  record k was acknowledged.
//
// Poll therefore delivers a record only once it is CONFIRMED: bytes
// follow it in its segment, or its segment is sealed (a later segment
// exists), or its LSN is at or below an external confirmation watermark
// (the leader's checkpoint manifest covers it). The last record in the
// log stays undelivered until any of those happen — bounded staleness,
// in exchange for never replaying bytes the leader may retract.
//
// Promotion is the one moment that wants the opposite semantics: after
// the leader is dead, a complete-but-unacknowledged tail record is
// exactly what crash recovery would replay, so the promoting follower
// drains with confirm = DrainConfirm and then owns the log.

import (
	"errors"
	"fmt"
	"path"

	"socialscope/internal/vfs"
)

// ErrGone reports that the records the tailer still needs were
// truncated away: the leader checkpointed past the tail position and
// removed the segments holding it. The follower cannot catch up by
// replay alone and must re-base from the latest checkpoint.
var ErrGone = errors.New("wal: tailed records truncated away")

// DrainConfirm is the confirmation watermark that makes Poll deliver
// every decodable record, including a complete-but-unacknowledged tail
// — the same prefix crash recovery would replay. Only meaningful when
// the leader is known dead; a tailer that drained must not keep
// tailing a live log.
const DrainConfirm = ^uint64(0)

// Tailer incrementally decodes records from a WAL directory, resuming
// where the previous Poll stopped. It is not safe for concurrent use;
// the follower engine serializes polls under its own lock.
type Tailer struct {
	fsys vfs.FS
	dir  string
	next uint64 // next LSN to deliver
	cur  string // segment name the resume offset refers to
	off  int    // byte offset of next in cur; 0 forces a rescan
}

// NewTailer returns a tailer that will deliver records starting at LSN
// from (1 if 0). The directory may not exist yet — polls report nothing
// until the leader creates it.
func NewTailer(fsys vfs.FS, dir string, from uint64) *Tailer {
	if from == 0 {
		from = 1
	}
	return &Tailer{fsys: fsys, dir: dir, next: from}
}

// NextLSN returns the LSN the next delivered record will carry.
func (t *Tailer) NextLSN() uint64 { return t.next }

// Poll scans forward from the tail position and calls fn for every
// newly confirmed record, in LSN order, up to max records (max <= 0
// means no bound). It returns the number delivered. A nil error with
// zero delivered means the tailer is caught up (or the log does not
// exist yet); ErrGone means the position was truncated away and the
// caller must re-base; ErrCorrupt means the directory contradicts the
// log invariants. An error from fn stops the poll without advancing
// past that record. The payload passed to fn is only valid for the
// duration of the call.
func (t *Tailer) Poll(confirm uint64, max int, fn func(lsn uint64, kind byte, payload []byte) error) (int, error) {
	delivered := 0
	segs, err := t.listSegs()
	if err != nil {
		if vfs.IsNotExist(err) {
			return 0, nil // leader has not created the log yet
		}
		return 0, fmt.Errorf("wal: tail: %w", err)
	}
	if len(segs) == 0 {
		return 0, nil
	}
	// Locate the segment that holds (or, when caught up, will hold) next.
	ci := -1
	for i := range segs {
		if segs[i].first > t.next {
			break
		}
		ci = i
	}
	if ci < 0 {
		return 0, ErrGone
	}
	for {
		seg := segs[ci]
		sealed := ci < len(segs)-1
		name := path.Join(t.dir, seg.name)
		// Resume where the last poll stopped, reading only the bytes past
		// it: re-reading the whole segment made every poll allocate its
		// size. The offset is always a confirmed-record boundary, which the
		// leader's heal never truncates below, so the bytes from there on
		// are fresh ground. A segment shorter than the offset, or one not
		// yet read past its header, is read whole and its header checked.
		var data []byte
		base, resumed := 0, false
		if t.cur == seg.name && t.off > headerLen {
			if data, resumed, err = vfs.ReadFileFrom(t.fsys, name, int64(t.off)); err != nil {
				return delivered, t.readErr(err)
			}
			if resumed {
				base = t.off
			}
		}
		if !resumed {
			if data, err = vfs.ReadFile(t.fsys, name); err != nil {
				return delivered, t.readErr(err)
			}
			if len(data) < headerLen {
				if sealed {
					return delivered, fmt.Errorf("%w: %s: truncated header", ErrCorrupt, seg.name)
				}
				return delivered, nil // segment creation in flight; come back later
			}
			if [headerLen]byte(data[:headerLen]) != magic {
				return delivered, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, seg.name)
			}
		}
		off, expect, end := headerLen, seg.first, base+len(data)
		if t.cur == seg.name && t.off >= headerLen && t.off <= end {
			off, expect = t.off, t.next
		}
		for off < end {
			if max > 0 && delivered >= max {
				t.cur, t.off = seg.name, off
				return delivered, nil
			}
			lsn, kind, payload, n, derr := DecodeRecord(data[off-base:])
			if derr != nil {
				if sealed {
					return delivered, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, seg.name, off, derr)
				}
				// Torn or still-in-flight bytes at the live tail: either a
				// write completes them or the leader's heal removes them.
				t.cur, t.off = seg.name, off
				return delivered, nil
			}
			if lsn != expect {
				return delivered, fmt.Errorf("%w: %s: lsn %d, want %d", ErrCorrupt, seg.name, lsn, expect)
			}
			if lsn >= t.next {
				confirmed := sealed || off+n < end || lsn <= confirm
				if !confirmed {
					t.cur, t.off = seg.name, off
					return delivered, nil
				}
				if err := fn(lsn, kind, payload); err != nil {
					t.cur, t.off = seg.name, off
					return delivered, err
				}
				delivered++
				t.next = lsn + 1
			}
			expect = lsn + 1
			off += n
		}
		t.cur, t.off = seg.name, off
		if !sealed {
			return delivered, nil // caught up with the active segment
		}
		nxt := segs[ci+1]
		if nxt.first != expect {
			return delivered, fmt.Errorf("%w: gap between %s and %s", ErrCorrupt, seg.name, nxt.name)
		}
		ci++
		t.cur, t.off = nxt.name, headerLen
	}
}

// readErr maps a failed segment read to Poll's error contract.
func (t *Tailer) readErr(err error) error {
	if vfs.IsNotExist(err) {
		return ErrGone // truncated between listing and read
	}
	return fmt.Errorf("wal: tail: %w", err)
}

func (t *Tailer) listSegs() ([]segInfo, error) {
	names, err := t.fsys.ReadDir(t.dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, name := range names {
		// ReadDir sorts names; zero-padded hex sorts numerically.
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segInfo{name: name, first: first})
		}
	}
	return segs, nil
}
