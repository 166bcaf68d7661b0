package vfs

import (
	"errors"
	"os"
	"testing"
)

func writeAll(t *testing.T, fsys FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", name, err)
	}
}

func TestFaultFSDurableAfterSync(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	f, err := fsys.OpenFile("a/log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world, this is durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" -- and this is volatile")); err != nil {
		t.Fatal(err)
	}
	fsys.SetCrashAtOp(fsys.Ops()) // next op crashes
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash arm: got %v, want ErrCrashed", err)
	}
	if !fsys.Crashed() {
		t.Fatal("expected crashed state")
	}
	if _, err := ReadFile(fsys, "a/log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read while crashed: got %v, want ErrCrashed", err)
	}
	fsys.Recover()
	got, err := ReadFile(fsys, "a/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world, this is durable" {
		t.Fatalf("after DropUnsynced recover: %q", got)
	}
}

func TestFaultFSKeepUnsyncedTearsWrites(t *testing.T) {
	fsys := NewFaultFS(KeepUnsynced)
	fsys.SetWriteChunk(4)
	f, err := fsys.OpenFile("log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-write: the open was op 0, so chunks are ops 1,2,...;
	// allow exactly two 4-byte chunks of the record through.
	fsys.SetCrashAtOp(3)
	n, err := f.Write([]byte("0123456789abcdef"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got n=%d err=%v", n, err)
	}
	if n != 8 {
		t.Fatalf("short write length: got %d, want 8", n)
	}
	fsys.Recover()
	got, err := ReadFile(fsys, "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234567" {
		t.Fatalf("torn tail content: %q", got)
	}
}

func TestFaultFSDropUnsyncedLosesTornTail(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	fsys.SetWriteChunk(4)
	f, err := fsys.OpenFile("log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("SYNCED..")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fsys.SetCrashAtOp(fsys.Ops() + 1)
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	fsys.Recover()
	got, err := ReadFile(fsys, "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "SYNCED.." {
		t.Fatalf("after recover: %q", got)
	}
}

func TestFaultFSRenameAtomicAndDurable(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	if err := WriteFileSync(fsys, "manifest.tmp", []byte(`{"seq":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename("manifest.tmp", "MANIFEST"); err != nil {
		t.Fatal(err)
	}
	fsys.SetCrashAtOp(fsys.Ops())
	// Any further op crashes; the rename must have survived durably.
	_ = fsys.Remove("MANIFEST")
	fsys.Recover()
	got, err := ReadFile(fsys, "MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"seq":1}` {
		t.Fatalf("MANIFEST after crash: %q", got)
	}
	if _, err := fsys.Size("manifest.tmp"); !IsNotExist(err) {
		t.Fatalf("tmp should be gone, got %v", err)
	}
}

func TestFaultFSInjectedSyncError(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	f, err := fsys.OpenFile("log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	fsys.FailSyncAtOp(fsys.Ops())
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if fsys.Crashed() {
		t.Fatal("injected sync error must not crash the fs")
	}
	// The failed sync made nothing durable: a crash now loses the data.
	fsys.SetCrashAtOp(fsys.Ops())
	_, _ = f.Write([]byte("x"))
	fsys.Recover()
	got, err := ReadFile(fsys, "log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "" {
		t.Fatalf("data after failed sync + crash: %q", got)
	}
	// Retry succeeds once disarmed.
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("retry sync: %v", err)
	}
}

func TestFaultFSOpsDeterministic(t *testing.T) {
	run := func() int64 {
		fsys := NewFaultFS(DropUnsynced)
		writeAll(t, fsys, "dir/a", []byte("0123456789012345"))
		writeAll(t, fsys, "dir/b", []byte("x"))
		if err := fsys.Rename("dir/b", "dir/c"); err != nil {
			t.Fatal(err)
		}
		if err := fsys.Remove("dir/c"); err != nil {
			t.Fatal(err)
		}
		return fsys.Ops()
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Fatalf("op counts differ or zero: %d vs %d", a, b)
	}
}

func TestFaultFSReadDir(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	if err := fsys.MkdirAll("w/seg", 0o755); err != nil {
		t.Fatal(err)
	}
	writeAll(t, fsys, "w/seg/b.seg", []byte("b"))
	writeAll(t, fsys, "w/seg/a.seg", []byte("a"))
	names, err := fsys.ReadDir("w/seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.seg" || names[1] != "b.seg" {
		t.Fatalf("ReadDir: %v", names)
	}
	if _, err := fsys.ReadDir("nope"); !IsNotExist(err) {
		t.Fatalf("missing dir: %v", err)
	}
	// Empty but created dir lists fine.
	if names, err := fsys.ReadDir("w"); err != nil || len(names) != 0 {
		t.Fatalf("dir with only subdir: %v %v", names, err)
	}
}

func TestOSImplementsFS(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	if err := fsys.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileSync(fsys, dir+"/sub/f.txt", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	if sz, err := fsys.Size(dir + "/sub/f.txt"); err != nil || sz != 4 {
		t.Fatalf("size: %d %v", sz, err)
	}
	if err := fsys.Truncate(dir+"/sub/f.txt", 2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fsys, dir+"/sub/f.txt")
	if err != nil || string(got) != "da" {
		t.Fatalf("after truncate: %q %v", got, err)
	}
	names, err := fsys.ReadDir(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "f.txt" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if err := fsys.Rename(dir+"/sub/f.txt", dir+"/sub/g.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(dir + "/sub/g.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Size(dir + "/sub/g.txt"); !IsNotExist(err) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

func TestFaultFSCrashNow(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	f, err := fsys.OpenFile("a/log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced part")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" volatile part")); err != nil {
		t.Fatal(err)
	}
	fsys.Crash() // kill -9: no op needs to fire
	if !fsys.Crashed() {
		t.Fatal("Crash() did not take the filesystem down")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after Crash: got %v, want ErrCrashed", err)
	}
	fsys.Recover()
	got, err := ReadFile(fsys, "a/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced part" {
		t.Fatalf("after Crash+Recover under DropUnsynced: %q", got)
	}
}

func TestFaultFSCloneIsIndependent(t *testing.T) {
	fsys := NewFaultFS(DropUnsynced)
	writeAll(t, fsys, "d/base", []byte("shared"))
	f, err := fsys.OpenFile("d/log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}

	clone := fsys.Clone()
	if got, want := clone.Ops(), fsys.Ops(); got != want {
		t.Fatalf("clone ops = %d, want %d", got, want)
	}
	// Divergence after the clone stays private to each side.
	writeAll(t, fsys, "d/only-orig", []byte("x"))
	writeAll(t, clone, "d/only-clone", []byte("y"))
	if b := clone.Bytes("d/only-orig"); b != nil {
		t.Fatalf("clone sees post-clone original write: %q", b)
	}
	if b := fsys.Bytes("d/only-clone"); b != nil {
		t.Fatalf("original sees post-clone clone write: %q", b)
	}
	// The clone preserves the synced/volatile split: crashing the clone
	// under DropUnsynced loses exactly the unsynced tail.
	clone.Crash()
	clone.Recover()
	got, err := ReadFile(clone, "d/log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("cloned volatile state survived a DropUnsynced crash: %q", got)
	}
	// The original is untouched by the clone's crash.
	if got := fsys.Bytes("d/log"); string(got) != "durable-volatile" {
		t.Fatalf("original damaged by clone crash: %q", got)
	}
}

func TestFaultFSClonePreservesCrashedState(t *testing.T) {
	fsys := NewFaultFS(KeepUnsynced)
	writeAll(t, fsys, "f", []byte("torn tail stays"))
	fsys.Crash()
	clone := fsys.Clone()
	if !clone.Crashed() {
		t.Fatal("clone of a crashed fs is not crashed")
	}
	clone.Recover()
	if got := clone.Bytes("f"); string(got) != "torn tail stays" {
		t.Fatalf("KeepUnsynced clone lost data: %q", got)
	}
}

// resizingFS is a FaultFS whose file changes length at a chosen moment of
// a read: when Size has answered (before the first Read), or after the
// first Read, which returns at most readChunk bytes.
type resizingFS struct {
	*FaultFS
	afterSize bool
	resize    func()
	readChunk int
}

func (r *resizingFS) Size(name string) (int64, error) {
	n, err := r.FaultFS.Size(name)
	if r.afterSize {
		r.resize()
	}
	return n, err
}

func (r *resizingFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := r.FaultFS.OpenFile(name, flag, perm)
	if err != nil || flag != os.O_RDONLY {
		return f, err
	}
	return &resizingFile{File: f, fs: r}, nil
}

type resizingFile struct {
	File
	fs    *resizingFS
	reads int
}

func (f *resizingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p[:min(len(p), f.fs.readChunk)])
	if f.reads++; f.reads == 1 && !f.fs.afterSize {
		f.fs.resize()
	}
	return n, err
}

// TestReadFileSizeChanges: ReadFile and ReadFileFrom size their buffer by
// Size, but a file that grows or shrinks after Size answers, or between
// two reads, is read as it then is, in full and with no error.
func TestReadFileSizeChanges(t *testing.T) {
	content := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + i/251)
		}
		return b
	}
	for _, c := range []struct {
		name      string
		afterSize bool
		from, to  int
	}{
		{"grows after Size", true, 1000, 70000},
		{"shrinks after Size", true, 70000, 300},
		{"empties after Size", true, 1000, 0},
		{"grows mid-read", false, 1000, 70000},
		{"shrinks mid-read", false, 70000, 600},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := NewFaultFS(DropUnsynced)
			writeAll(t, base, "f", content(c.from))
			fsys := &resizingFS{FaultFS: base, afterSize: c.afterSize, readChunk: 128}
			fsys.resize = func() {
				if err := base.Truncate("f", 0); err != nil {
					t.Fatal(err)
				}
				writeAll(t, base, "f", content(c.to))
			}
			want := content(c.to)
			got, err := ReadFile(fsys, "f")
			if err != nil || string(got) != string(want) {
				t.Fatalf("ReadFile: %d bytes, %v; want the %d bytes the file holds", len(got), err, len(want))
			}
			const off = 100
			if err := base.Truncate("f", 0); err != nil {
				t.Fatal(err)
			}
			writeAll(t, base, "f", content(c.from))
			got, ok, err := ReadFileFrom(fsys, "f", off)
			if c.to < off {
				if err != nil || ok && len(got) != 0 {
					t.Fatalf("ReadFileFrom past the end: %d bytes, %v, %v", len(got), ok, err)
				}
				return
			}
			if err != nil || !ok || string(got) != string(want[off:]) {
				t.Fatalf("ReadFileFrom(%d): %d bytes, %v, %v; want %d", off, len(got), ok, err, len(want)-off)
			}
		})
	}
}
