package store_test

// The Data Manager's durability contract, checked end to end on the one
// protocol the engine runs: WAL segments plus this package's checkpoint
// chain and MANIFEST, driven through socialscope.OpenDurable over a
// fault-injecting filesystem. Most recoveries go through crashReopen —
// no Close, so no final checkpoint — so that WAL replay carries the
// state.

import (
	"errors"
	"os"
	"path"
	"sync"
	"testing"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
)

const dbDir = "db"

// openDB opens a durable engine whose WAL rotates after every record, so
// recovery also crosses segment boundaries. A nil reg means obs.Default.
func openDB(t *testing.T, fsys vfs.FS, reg *obs.Registry) *socialscope.Engine {
	t.Helper()
	e, err := socialscope.OpenDurable(dbDir, nil, socialscope.Config{ItemType: graph.TypeItem, Obs: reg},
		socialscope.DurableOptions{SegmentBytes: 9, FS: fsys})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return e
}

// crashReopen kills the engine's disk without a Close and reopens it.
func crashReopen(t *testing.T, fsys *vfs.FaultFS) *socialscope.Engine {
	t.Helper()
	fsys.Crash()
	fsys.Recover()
	return openDB(t, fsys, nil)
}

func user(id graph.NodeID) graph.Mutation {
	return graph.Mutation{Kind: graph.MutAddNode, Node: graph.NewNode(id, graph.TypeUser)}
}

func connect(id graph.LinkID, src, tgt graph.NodeID) graph.Mutation {
	return graph.Mutation{Kind: graph.MutAddLink, Link: graph.NewLink(id, src, tgt, graph.TypeConnect)}
}

func mustApply(t *testing.T, e *socialscope.Engine, muts ...graph.Mutation) {
	t.Helper()
	if err := e.Apply(muts); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

func wantState(t *testing.T, e *socialscope.Engine, version uint64, nodes, links int) {
	t.Helper()
	g := e.Graph()
	if e.Version() != version || g.NumNodes() != nodes || g.NumLinks() != links {
		t.Fatalf("version %d with %d nodes %d links, want %d with %d and %d",
			e.Version(), g.NumNodes(), g.NumLinks(), version, nodes, links)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func walSegments(t *testing.T, fsys vfs.FS) []string {
	t.Helper()
	names, err := fsys.ReadDir(path.Join(dbDir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = path.Join(dbDir, "wal", names[i])
	}
	return names
}

func TestBasicDurability(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	mustApply(t, e, user(2))
	mustApply(t, e, connect(1, 1, 2))
	wantState(t, crashReopen(t, fsys), 3, 2, 1)
}

// TestSnapshotCompactsLog: a checkpoint covers the WAL before it, so
// recovery replays only the records written after it.
func TestSnapshotCompactsLog(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	mustApply(t, e, user(2))
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, e, connect(1, 1, 2))
	fsys.Crash()
	fsys.Recover()
	reg := obs.NewRegistry()
	wantState(t, openDB(t, fsys, reg), 3, 2, 1)
	if n := reg.Snapshot()["ss_engine_applies_total"]; n != 1 {
		t.Fatalf("recovery replayed %v batches, want only the 1 past the checkpoint", n)
	}
}

func TestTornTailRecovery(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	mustApply(t, e, user(2))
	fsys.Crash()
	fsys.Recover()
	// A crash mid-append leaves a partial record at the end of the log.
	segs := walSegments(t, fsys)
	f, err := fsys.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x07}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e = openDB(t, fsys, nil)
	wantState(t, e, 2, 2, 0)
	// The torn bytes were truncated away; new appends land and replay.
	mustApply(t, e, user(3))
	wantState(t, crashReopen(t, fsys), 3, 3, 0)
}

func TestMidStreamCorruptionRejected(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	for id := graph.NodeID(1); id <= 3; id++ {
		mustApply(t, e, user(id))
	}
	fsys.Crash()
	fsys.Recover()
	// Cut a record that later records follow: not a crash signature.
	first := walSegments(t, fsys)[0]
	if err := fsys.Truncate(first, int64(len(fsys.Bytes(first)))-1); err != nil {
		t.Fatal(err)
	}
	_, err := socialscope.OpenDurable(dbDir, nil, socialscope.Config{ItemType: graph.TypeItem},
		socialscope.DurableOptions{SegmentBytes: 9, FS: fsys})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("mid-stream corruption: %v, want wal.ErrCorrupt", err)
	}
}

func TestRemoveOps(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1), user(2), connect(1, 1, 2))
	mustApply(t, e, graph.Mutation{Kind: graph.MutRemoveLink, Link: graph.NewLink(1, 1, 2, graph.TypeConnect)})
	mustApply(t, e, graph.Mutation{Kind: graph.MutRemoveNode, Node: graph.NewNode(2, graph.TypeUser)})
	wantState(t, crashReopen(t, fsys), 3, 1, 0)
}

// TestPutLinkValidatesEndpoints: an invalid batch is refused before it
// reaches the WAL, so recovery never sees it.
func TestPutLinkValidatesEndpoints(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	if err := e.Apply([]graph.Mutation{connect(1, 1, 2)}); !errors.Is(err, graph.ErrMissingEnd) {
		t.Errorf("dangling link error = %v", err)
	}
	if err := e.Apply([]graph.Mutation{{Kind: graph.MutAddNode}}); !errors.Is(err, graph.ErrNilElement) {
		t.Errorf("nil node error = %v", err)
	}
	wantState(t, crashReopen(t, fsys), 0, 0, 0)
}

// TestClosedStore: after Close the engine keeps serving reads, refuses
// writes, and a second Close is harmless.
func TestClosedStore(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := e.Apply([]graph.Mutation{user(2)}); err == nil {
		t.Error("Apply after Close succeeded")
	}
	wantState(t, e, 1, 1, 0)
	wantState(t, openDB(t, fsys, nil), 1, 1, 0)
}

// TestGraphReturnsIsolatedCopy: a graph a reader holds is a snapshot;
// later durable writes publish new ones instead of changing it.
func TestGraphReturnsIsolatedCopy(t *testing.T) {
	e := openDB(t, vfs.NewFaultFS(vfs.DropUnsynced), nil)
	mustApply(t, e, user(1))
	g := e.Graph()
	mustApply(t, e, user(2))
	if g.NumNodes() != 1 || e.Graph().NumNodes() != 2 {
		t.Fatalf("held snapshot has %d nodes, live graph %d", g.NumNodes(), e.Graph().NumNodes())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := e.Apply([]graph.Mutation{user(graph.NodeID(100 + w*100 + i))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g := e.Graph(); g.NumNodes() < 1 {
					errs <- errors.New("reader saw an empty graph")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	wantState(t, e, 101, 101, 0)
	wantState(t, crashReopen(t, fsys), 101, 101, 0)
}

func TestSnapshotSurvivesReopenCycle(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	for cycle := 0; cycle < 3; cycle++ {
		e := openDB(t, fsys, nil)
		mustApply(t, e, user(graph.NodeID(cycle+1)))
		if cycle%2 == 0 {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		fsys.Crash()
		fsys.Recover()
	}
	wantState(t, openDB(t, fsys, nil), 3, 3, 0)
}

// TestAppendAckDurableUnderDropUnsynced: a write acknowledged before a
// crash survives it even when the crash drops every unsynced byte; a
// write the crash cut short is not resurrected.
func TestAppendAckDurableUnderDropUnsynced(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	fsys.SetCrashAtOp(fsys.Ops())
	if err := e.Apply([]graph.Mutation{user(2)}); err == nil {
		t.Fatal("Apply after the crash point succeeded")
	}
	fsys.Recover()
	g := openDB(t, fsys, nil).Graph()
	if !g.HasNode(1) || g.HasNode(2) {
		t.Fatalf("after crash: node 1 present %v, node 2 present %v; want true, false", g.HasNode(1), g.HasNode(2))
	}
}

// TestAppendSyncFailureNotAcked: a failed fsync is a failed write — the
// batch is neither acknowledged nor visible.
func TestAppendSyncFailureNotAcked(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	e := openDB(t, fsys, nil)
	mustApply(t, e, user(1))
	// Arm a sync failure one op further into each attempt until an
	// append's own fsync is the victim.
	for k := int64(0); k < 64; k++ {
		id, v := graph.NodeID(100+k), e.Version()
		fsys.FailSyncAtOp(fsys.Ops() + k)
		err := e.Apply([]graph.Mutation{user(id)})
		if err == nil {
			continue
		}
		if !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("failed append should carry the injected fault, got %v", err)
		}
		if e.Version() != v || e.Graph().HasNode(id) {
			t.Fatal("a batch whose fsync failed became visible")
		}
		return
	}
	t.Fatal("no append could be made to fail its fsync — fault plumbing broken")
}

// TestSnapshotCrashEveryOp crashes a checkpoint at every filesystem op
// under both loss modes: recovery must always yield exactly the state
// before the checkpoint.
func TestSnapshotCrashEveryOp(t *testing.T) {
	for _, mode := range []vfs.LossMode{vfs.DropUnsynced, vfs.KeepUnsynced} {
		for crash := int64(0); ; crash++ {
			fsys := vfs.NewFaultFS(mode)
			e := openDB(t, fsys, nil)
			mustApply(t, e, user(1), user(2), user(3), user(4))
			mustApply(t, e, connect(1, 1, 2))
			mustApply(t, e, graph.Mutation{Kind: graph.MutRemoveNode, Node: graph.NewNode(4, graph.TypeUser)})
			want := e.Graph()
			fsys.SetCrashAtOp(fsys.Ops() + crash)
			ckErr := e.Checkpoint()
			if !fsys.Crashed() {
				if ckErr != nil {
					t.Fatalf("mode %v: clean checkpoint failed: %v", mode, ckErr)
				}
				break
			}
			fsys.Recover()
			got := openDB(t, fsys, nil)
			if got.Version() != 3 || !got.Graph().Equal(want) {
				t.Fatalf("mode %v crash@+%d: recovered version %d differs from the pre-checkpoint state",
					mode, crash, got.Version())
			}
		}
	}
}

// TestCloseSurfacesSyncError: Close's final checkpoint reports a failed
// fsync instead of swallowing it, and the acknowledged write still
// recovers from the WAL.
func TestCloseSurfacesSyncError(t *testing.T) {
	for k := int64(0); k < 256; k++ {
		fsys := vfs.NewFaultFS(vfs.DropUnsynced)
		e := openDB(t, fsys, nil)
		mustApply(t, e, user(1))
		fsys.FailSyncAtOp(fsys.Ops() + k)
		err := e.Close()
		if err == nil {
			continue
		}
		if !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("Close should surface the sync failure, got %v", err)
		}
		wantState(t, openDB(t, fsys, nil), 1, 1, 0)
		return
	}
	t.Fatal("no Close could be made to fail its fsync — fault plumbing broken")
}
