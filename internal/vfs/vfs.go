// Package vfs is the filesystem seam of the durability subsystem. The
// write-ahead log (internal/wal) and the checkpointer (internal/store)
// perform every file operation through the FS interface, so tests can
// substitute a fault-injecting in-memory filesystem (FaultFS) and drive
// the exact failure modes durability exists to survive: crashes at
// arbitrary write boundaries, torn tails, fsync errors and short writes.
//
// Production code uses OS, a thin wrapper over the os package. The
// durability contract the callers rely on:
//
//   - data written to a File is durable only after Sync returns nil;
//   - Rename is atomic: after a crash the name refers to either the old
//     or the new file, never a mix;
//   - metadata operations (create, rename, remove, truncate) are treated
//     as durable when they return — the simplification of a
//     metadata-journaling filesystem. The fsync-ordering that matters
//     (file contents synced before the rename that publishes them) is
//     the caller's responsibility and is what FaultFS verifies.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"sort"
)

// File is an open file handle. Reads and writes share one offset, as
// with *os.File.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync makes all data written so far durable. Data not synced may be
	// lost — in whole or in part — by a crash.
	Sync() error
}

// FS is the set of filesystem operations the durability layer uses.
// Paths use the host separator conventions of the implementation; the
// callers only ever join with filepath.Join and pass the results back.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flag subset
	// O_RDONLY, O_WRONLY, O_RDWR, O_CREATE, O_APPEND, O_TRUNC.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadDir returns the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string, perm fs.FileMode) error
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Size returns the current length of name in bytes.
	Size(name string) (int64, error)
}

// OS is the production FS over the real filesystem.
type OS struct{}

// OpenFile opens a real file.
func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadDir lists a real directory.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll creates a real directory tree.
func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

// Remove deletes a real file.
func (OS) Remove(name string) error { return os.Remove(name) }

// Rename atomically renames a real file.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Truncate cuts a real file.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Size stats a real file.
func (OS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadFile reads the whole of name through fsys.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// ReadFileFrom reads name from byte offset off to its end, allocating only
// for those bytes: File has no Seek, so the prefix is read and discarded.
// ok is false, and nothing is returned, when the file is shorter than off.
func ReadFileFrom(fsys FS, name string, off int64) (data []byte, ok bool, err error) {
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	if n, err := io.CopyN(io.Discard, f, off); n < off {
		if err == io.EOF {
			return nil, false, nil
		}
		return nil, false, err
	}
	if data, err = io.ReadAll(f); err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// WriteFileSync writes data to name (creating or truncating), syncs it,
// and closes it — the durable counterpart of os.WriteFile.
func WriteFileSync(fsys FS, name string, data []byte, perm fs.FileMode) error {
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the one the caller needs
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error already condemns the file
		return err
	}
	return f.Close()
}

// IsNotExist reports whether err says the file does not exist, for either
// implementation.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
