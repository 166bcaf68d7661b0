package wal

import (
	"fmt"
	"os"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"socialscope/internal/obs"
	"socialscope/internal/vfs"
)

// DefaultSegmentBytes is the rotation threshold: once the active
// segment reaches this size a new one is started.
const DefaultSegmentBytes = 4 << 20

// Options configure a Log.
type Options struct {
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes if 0).
	SegmentBytes int64
	// FirstLSN seeds the LSN sequence when the directory holds no
	// segments (1 if 0). It is ignored when segments exist: the log
	// resumes where the files say it stopped.
	FirstLSN uint64
	// Obs selects the metrics registry (obs.Default when nil).
	Obs *obs.Registry
}

// Log is an append-only, segmented write-ahead log. Appends are
// serialized; AppendSync returns only after the record is written and
// fsynced, so a nil error means the record survives any crash.
type Log struct {
	fsys vfs.FS
	dir  string
	opts Options

	mu         sync.Mutex
	f          vfs.File // active segment handle; nil after an open failure
	activeSize int64    // bytes written to the active segment
	goodSize   int64    // last complete-record boundary in the active segment
	dirty      bool     // a failed append left bytes past goodSize
	nextLSN    uint64
	segs       []segInfo // ascending by first LSN; last is active
	closed     bool
	met        *walMetrics
}

type segInfo struct {
	name  string
	first uint64
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != 4+16+4 || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	first, err := strconv.ParseUint(name[4:4+16], 16, 64)
	return first, err == nil
}

// Open loads (or initializes) the log in dir, healing a torn tail in
// the last segment — the crash signature — by truncating it to its last
// complete record. Corruption anywhere else fails hard.
func Open(fsys vfs.FS, dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FirstLSN == 0 {
		opts.FirstLSN = 1
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fsys: fsys, dir: dir, opts: opts, met: newWalMetrics(opts.Obs)}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			l.segs = append(l.segs, segInfo{name: name, first: first})
		}
	}
	// ReadDir sorts names; zero-padded hex sorts numerically.
	if len(l.segs) == 0 {
		if err := l.startSegment(opts.FirstLSN); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err := l.recoverTail(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	return l, nil
}

// recoverTail scans the last segment to find the next LSN and truncates
// any torn tail. Called with no handle open.
func (l *Log) recoverTail() error {
	seg := l.segs[len(l.segs)-1]
	p := path.Join(l.dir, seg.name)
	data, err := vfs.ReadFile(l.fsys, p)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if len(data) < headerLen {
		// The crash hit during segment creation: the name is durable but
		// the header is not all there. Start the segment over.
		if err := l.fsys.Truncate(p, 0); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		data = nil
	} else if [headerLen]byte(data[:headerLen]) != magic {
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, seg.name)
	}
	if data == nil {
		f, err := l.fsys.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Write(magic[:]); err != nil {
			_ = f.Close() // the write error is the one the caller needs
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close() // the sync error already condemns the segment
			return fmt.Errorf("wal: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.nextLSN = seg.first
		l.activeSize, l.goodSize = headerLen, headerLen
		return nil
	}
	expect := seg.first
	off := headerLen
	for off < len(data) {
		lsn, _, _, n, err := DecodeRecord(data[off:])
		if err != nil {
			// Torn tail — or garbage after the last good record, which is
			// indistinguishable from one and equally discardable.
			if terr := l.fsys.Truncate(p, int64(off)); terr != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", terr)
			}
			break
		}
		if lsn != expect {
			return fmt.Errorf("%w: %s: lsn %d, want %d", ErrCorrupt, seg.name, lsn, expect)
		}
		expect++
		off += n
	}
	l.nextLSN = expect
	l.activeSize, l.goodSize = int64(off), int64(off)
	return nil
}

// openActive (re)opens the handle on the active segment for appending.
func (l *Log) openActive() error {
	seg := l.segs[len(l.segs)-1]
	f, err := l.fsys.OpenFile(path.Join(l.dir, seg.name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	return nil
}

// startSegment creates and syncs a fresh segment whose first record
// will carry LSN first, and makes it active.
func (l *Log) startSegment(first uint64) error {
	name := segName(first)
	f, err := l.fsys.OpenFile(path.Join(l.dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		_ = f.Close() // the write error is the one the caller needs
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error already condemns the segment
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, segInfo{name: name, first: first})
	l.nextLSN = first
	l.activeSize, l.goodSize = headerLen, headerLen
	l.dirty = false
	return nil
}

// NextLSN returns the LSN the next appended record will carry.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// AppendSync appends one record and fsyncs it. On success the record is
// durable and its LSN is returned. On failure the log is logically
// unchanged: the next append first truncates any partial or unacked
// bytes back to the last acknowledged boundary, so a record that failed
// its sync is never followed by a later one. (If a crash intervenes
// before that heal, a complete-but-unacked record may survive and
// replay — allowed, since the ack guarantee is one-directional:
// acknowledged implies durable, not the converse.)
func (l *Log) AppendSync(kind byte, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: closed")
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	if err := l.heal(); err != nil {
		return 0, err
	}
	if l.activeSize >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	frame := AppendRecord(nil, l.nextLSN, kind, payload)
	start := time.Now()
	n, err := l.f.Write(frame)
	l.activeSize += int64(n)
	if err != nil {
		l.dirty = true
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.dirty = true
		return 0, fmt.Errorf("wal: sync: %w", err)
	}
	l.met.fsync.ObserveSince(start)
	l.met.appends.Inc()
	l.met.bytes.Add(uint64(len(frame)))
	l.goodSize = l.activeSize
	lsn := l.nextLSN
	l.nextLSN++
	return lsn, nil
}

// heal truncates the active segment back to the last acknowledged
// record boundary after a failed append, and (re)opens the append
// handle. The dirty handle must close cleanly before the truncate: a
// failed close means buffered writes may still land, so truncating
// under it could leave the file in a state neither boundary describes.
// On a close failure the handle is abandoned (l.f = nil) and the error
// surfaces; the next append retries the heal from the truncate step.
func (l *Log) heal() error {
	if l.dirty {
		if l.f != nil {
			err := l.f.Close()
			l.f = nil
			if err != nil {
				return fmt.Errorf("wal: heal: close before truncate: %w", err)
			}
		}
		seg := l.segs[len(l.segs)-1]
		if err := l.fsys.Truncate(path.Join(l.dir, seg.name), l.goodSize); err != nil {
			return fmt.Errorf("wal: heal: %w", err)
		}
		l.activeSize = l.goodSize
		l.dirty = false
	}
	if l.f == nil {
		return l.openActive()
	}
	return nil
}

// rotate closes the active segment (already durable — every append
// syncs) and starts a new one at the current next LSN.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		l.f = nil
		return fmt.Errorf("wal: %w", err)
	}
	l.f = nil
	l.met.rotations.Inc()
	return l.startSegment(l.nextLSN)
}

// TruncateThrough removes segments whose every record has LSN <= lsn.
// The active segment is always retained. Used after a checkpoint makes
// the prefix redundant.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Re-slice as each segment is removed, so a mid-loop Remove failure
	// leaves l.segs naming only files that still exist — a retry must not
	// trip over a half-finished truncation.
	for len(l.segs) > 1 && l.segs[1].first <= lsn+1 {
		if err := l.fsys.Remove(path.Join(l.dir, l.segs[0].name)); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// Close closes the active segment handle. Appends already acknowledged
// are durable; Close adds nothing and loses nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
