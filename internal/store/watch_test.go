package store

import (
	"errors"
	"fmt"
	"testing"

	"socialscope/internal/obs"
	"socialscope/internal/vfs"
)

func TestWatcherReportsManifestAdvances(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	w := NewWatcher(fsys, "ck", 0)

	// No manifest yet: quiet.
	if man, changed, err := w.Poll(); man != nil || changed || err != nil {
		t.Fatalf("poll on empty dir: man=%v changed=%v err=%v", man, changed, err)
	}

	g := bigGraph(t, 6, 4)
	c := NewCheckpointer(fsys, "ck", 4, 0, obs.NewRegistry())
	if err := c.Save(g, Meta{Version: 3, WalLSN: 7}); err != nil {
		t.Fatal(err)
	}
	man, changed, err := w.Poll()
	if err != nil || !changed || man == nil {
		t.Fatalf("first save unseen: changed=%v err=%v", changed, err)
	}
	if man.Version != 3 || man.WalLSN != 7 {
		t.Fatalf("manifest meta: %+v", man)
	}
	seq1 := man.Seq

	// Unchanged manifest: reported, but not as a change.
	if man, changed, err := w.Poll(); err != nil || changed || man == nil || man.Seq != seq1 {
		t.Fatalf("steady poll: man=%v changed=%v err=%v", man, changed, err)
	}

	// A second save advances the sequence.
	if err := c.Save(g, Meta{Version: 4, WalLSN: 9}); err != nil {
		t.Fatal(err)
	}
	man, changed, err = w.Poll()
	if err != nil || !changed || man.Seq <= seq1 || man.WalLSN != 9 {
		t.Fatalf("second save: man=%+v changed=%v err=%v", man, changed, err)
	}

	// A fresh watcher seeded with the latest seq sees no change.
	w2 := NewWatcher(fsys, "ck", man.Seq)
	if _, changed, err := w2.Poll(); err != nil || changed {
		t.Fatalf("seeded watcher: changed=%v err=%v", changed, err)
	}
}

// A manifest may name only checkpoint files in its own directory: one
// that points recovery at a valid checkpoint elsewhere, or at a file not
// named as checkpoints are, is corrupt, not followed.
func TestLoadManifestRejectsForeignChainNames(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	c := NewCheckpointer(fsys, "other", 4, 0, obs.NewRegistry())
	if err := c.Save(bigGraph(t, 6, 4), Meta{Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fsys.MkdirAll("ck", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"../other/" + ckptName(1), "/other/" + ckptName(1), "ckpt-1.ck", ckptName(1) + ".tmp", "MANIFEST",
	} {
		man := fmt.Sprintf(`{"seq":1,"chain":[%q],"version":1}`, name)
		if err := vfs.WriteFileSync(fsys, "ck/MANIFEST", []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(fsys, "ck"); !errors.Is(err, ErrCkptCorrupt) {
			t.Errorf("LoadManifest with chain %q: %v, want ErrCkptCorrupt", name, err)
		}
		if _, err := LoadLatest(fsys, "ck"); !errors.Is(err, ErrCkptCorrupt) {
			t.Errorf("LoadLatest with chain %q: %v, want ErrCkptCorrupt", name, err)
		}
	}
}
