package store

// Manifest watching: the follower-side signal that the leader published
// a new checkpoint chain. Manifest replacement is atomic (tmp + fsync +
// rename), so a poll reads either the previous manifest or the new one,
// never a torn mix — no locking is needed across processes.

import (
	"encoding/json"
	"fmt"
	"path"

	"socialscope/internal/vfs"
)

// LoadManifest reads and decodes dir's MANIFEST without folding the
// checkpoint chain it names. It returns (nil, nil) when the directory
// holds no manifest yet, and ErrCkptCorrupt for one that names no file or
// a file not named as checkpoints are, such as one outside dir.
func LoadManifest(fsys vfs.FS, dir string) (*Manifest, error) {
	data, err := vfs.ReadFile(fsys, path.Join(dir, manifestName))
	if vfs.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCkptCorrupt, err)
	}
	if len(man.Chain) == 0 {
		return nil, fmt.Errorf("%w: manifest names no files", ErrCkptCorrupt)
	}
	for _, name := range man.Chain {
		if !isCkptName(name) {
			return nil, fmt.Errorf("%w: manifest names %q, not a checkpoint file", ErrCkptCorrupt, name)
		}
	}
	return &man, nil
}

// Watcher polls a checkpoint directory for manifest advances. A
// follower uses it to notice new checkpoint chains: new WAL-truncation
// watermarks to confirm tail records against, and — after falling
// behind a truncation — a chain to re-base onto instead of replaying an
// unbounded tail.
type Watcher struct {
	fsys vfs.FS
	dir  string
	seq  uint64
}

// NewWatcher returns a watcher that reports manifests whose Seq moved
// past lastSeq (the manifest the caller already folded; 0 for none).
func NewWatcher(fsys vfs.FS, dir string, lastSeq uint64) *Watcher {
	return &Watcher{fsys: fsys, dir: dir, seq: lastSeq}
}

// Poll reads the current manifest and reports whether it advanced since
// the last change Poll reported. The manifest is returned even when
// unchanged (nil only when none exists yet).
func (w *Watcher) Poll() (*Manifest, bool, error) {
	man, err := LoadManifest(w.fsys, w.dir)
	if err != nil || man == nil {
		return nil, false, err
	}
	if man.Seq == w.seq {
		return man, false, nil
	}
	w.seq = man.Seq
	return man, true, nil
}
