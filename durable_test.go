package socialscope

// Crash-recovery differential harness. A deterministic mutation stream
// (with an Analyze in the middle) drives two engines: a never-crashed
// oracle whose state digest is captured at every version, and a durable
// engine running over a fault-injection filesystem that is crashed at
// EVERY filesystem operation boundary, under both loss models (drop
// unsynced writes / keep torn tails). After each crash the engine is
// reopened from disk and its digest — canonical encodings of the serving
// graph and, once analyzed, of the derived id ranges and the base graph
// they recover (contents, iteration order, id high-water marks), the
// state version, and index-backed top-k rankings for a user panel —
// must be byte-identical to the oracle's digest at the recovered
// version, which must be at or past the last acknowledged write.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/store"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
	"socialscope/internal/workload"
)

const durTestDir = "dur"

func durableTestConfig() Config {
	return Config{ItemType: "destination", Topics: 2, Seed: 11, TopK: TopKTA}
}

func durableTestOpts(fsys vfs.FS) DurableOptions {
	return DurableOptions{
		SegmentBytes:    512, // force several WAL rotations inside the stream
		CheckpointEvery: 4,
		MaxChain:        2, // force delta-chain resets inside the stream
		FS:              fsys,
	}
}

// engineDigest captures everything recovery must reproduce exactly. The
// graph encodings are the canonical checkpoint bytes — build-order
// independent, covering contents, hash-order iteration and the
// MaxNodeID/MaxLinkID high-water marks — and the rankings go through
// the engine's real query path (index build or incremental delta,
// whichever the engine's history dictates).
func engineDigest(t *testing.T, e *Engine, users []NodeID, query string) string {
	t.Helper()
	st := e.state.Load()
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], st.version)
	h.Write(buf[:])
	h.Write(graph.NewCkptWriter().AppendCheckpoint(nil, st.g))
	if d := st.derived; d != nil {
		h.Write([]byte{1})
		for _, v := range []int64{int64(d.NodeLo), int64(d.NodeHi), int64(d.LinkLo), int64(d.LinkHi)} {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		h.Write(graph.NewCkptWriter().AppendCheckpoint(nil, st.g.WithoutDerived(*d)))
	}
	for _, u := range users {
		resp, err := e.SearchCtx(context.Background(), u, query)
		if err != nil {
			t.Fatalf("digest query for user %d: %v", u, err)
		}
		for _, r := range resp.Results() {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Item))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Score))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return hex.EncodeToString(h.Sum(nil))
}

type durStep struct {
	muts    []graph.Mutation
	analyze bool
}

// buildDurabilityWorkload generates the deterministic stream and runs
// the oracle over it, returning the genesis graph, the steps, and the
// oracle digest at every version a recovered engine can land on.
func buildDurabilityWorkload(t *testing.T) (genesis *graph.Graph, steps []durStep, digests map[uint64]string, users []NodeID, query string) {
	t.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 14, Destinations: 8, Seed: 23, VisitsPerUser: 4, TagFraction: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	genesis = corpus.Graph
	users = []NodeID{corpus.Users[0], corpus.Users[5]}

	// Sample the real tag vocabulary (LinkIDs is sorted → deterministic).
	var vocab []string
	seen := map[string]bool{}
	for _, id := range genesis.LinkIDs() {
		if tag := genesis.Link(id).Attrs().Get("tags"); tag != "" && !seen[tag] {
			seen[tag] = true
			vocab = append(vocab, tag)
		}
	}
	if len(vocab) < 2 {
		t.Fatal("corpus has too few tags")
	}
	query = vocab[0] + " " + vocab[1]

	oracle, err := New(genesis, durableTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	digests = map[uint64]string{0: engineDigest(t, oracle, users, query)}

	scratch := genesis.Clone()
	clog := graph.RecordInto(scratch)
	nextNode := scratch.MaxNodeID() + 1
	nextLink := scratch.MaxLinkID() + 1
	rng := rand.New(rand.NewSource(91))
	items := corpus.Destinations
	var added []NodeID // stream-added users, removal candidates

	addTagging := func(src NodeID) {
		l := graph.NewLink(nextLink, src, items[rng.Intn(len(items))],
			graph.TypeAct, graph.SubtypeTag)
		nextLink++
		l.AddAttr("tags", vocab[rng.Intn(len(vocab))])
		if err := scratch.AddLink(l); err != nil {
			t.Fatal(err)
		}
	}

	for s := 0; s < 12; s++ {
		if s == 4 {
			steps = append(steps, durStep{analyze: true})
			if err := oracle.Analyze(); err != nil {
				t.Fatal(err)
			}
			// Analyzer-derived elements allocate ids past the base maxima;
			// later stream ids must clear them too (the engine rejects
			// collisions with the analyzed graph).
			an := oracle.Graph()
			if m := an.MaxNodeID(); m >= nextNode {
				nextNode = m + 1
			}
			if m := an.MaxLinkID(); m >= nextLink {
				nextLink = m + 1
			}
			digests[oracle.Version()] = engineDigest(t, oracle, users, query)
			continue
		}
		for o, ops := 0, 1+rng.Intn(3); o < ops; o++ {
			switch k := rng.Intn(10); {
			case k < 5: // a new user tags an item
				u := graph.NewNode(nextNode, graph.TypeUser)
				nextNode++
				u.Attrs.Add("name", fmt.Sprintf("wal-user-%d", u.ID))
				if err := scratch.AddNode(u); err != nil {
					t.Fatal(err)
				}
				added = append(added, u.ID)
				addTagging(u.ID)
			case k < 7: // an earlier stream user tags again
				if len(added) == 0 {
					continue
				}
				addTagging(added[rng.Intn(len(added))])
			case k < 8: // consolidate an existing link (records Prev)
				lids := scratch.LinkIDs()
				l := scratch.Link(lids[rng.Intn(len(lids))]).Clone()
				l.AddAttr("tags", vocab[rng.Intn(len(vocab))])
				if err := scratch.PutLink(l); err != nil {
					t.Fatal(err)
				}
			case k < 9: // remove a stream-added user (cascade) — retracted
				// high-water ids must survive recovery
				if len(added) == 0 {
					continue
				}
				i := rng.Intn(len(added))
				scratch.RemoveNode(added[i])
				added = append(added[:i], added[i+1:]...)
			default: // remove a random link
				lids := scratch.LinkIDs()
				scratch.RemoveLink(lids[rng.Intn(len(lids))])
			}
		}
		muts := clog.Drain()
		if len(muts) == 0 {
			continue
		}
		steps = append(steps, durStep{muts: muts})
		if err := oracle.Apply(muts); err != nil {
			t.Fatal(err)
		}
		digests[oracle.Version()] = engineDigest(t, oracle, users, query)
	}
	if len(steps) < 8 {
		t.Fatalf("workload generated only %d steps", len(steps))
	}
	return genesis, steps, digests, users, query
}

// runDurableWorkload opens a durable engine over fsys and pushes the
// stream through it, returning the highest version whose write was
// acknowledged before the first error (fault runs stop at the injected
// crash).
func runDurableWorkload(fsys vfs.FS, genesis *graph.Graph, steps []durStep) (acked uint64, err error) {
	eng, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		return 0, err
	}
	acked = eng.Version()
	for _, s := range steps {
		if s.analyze {
			err = eng.Analyze()
		} else {
			err = eng.Apply(s.muts)
		}
		if err != nil {
			return acked, err
		}
		acked = eng.Version()
	}
	return acked, eng.Close()
}

func TestCrashRecoveryDifferential(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	for _, tc := range []struct {
		name string
		mode vfs.LossMode
	}{
		{"drop-unsynced", vfs.DropUnsynced},
		{"keep-unsynced", vfs.KeepUnsynced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Golden run without a crash: fixes the op budget and proves a
			// clean close/reopen resumes the exact version.
			golden := vfs.NewFaultFS(tc.mode)
			golden.SetWriteChunk(32)
			acked, err := runDurableWorkload(golden, genesis, steps)
			if err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenDurable(durTestDir, nil, durableTestConfig(), durableTestOpts(golden))
			if err != nil {
				t.Fatal(err)
			}
			if v := reopened.Version(); v != acked {
				t.Fatalf("clean reopen at version %d, want %d", v, acked)
			}
			if d := engineDigest(t, reopened, users, query); d != digests[acked] {
				t.Fatal("clean reopen diverged from oracle")
			}
			totalOps := golden.Ops()

			stride := int64(1)
			if testing.Short() {
				stride = 7
			}
			points := 0
			for cp := int64(1); cp <= totalOps; cp += stride {
				points++
				fsys := vfs.NewFaultFS(tc.mode)
				fsys.SetWriteChunk(32)
				fsys.SetCrashAtOp(cp)
				ackedAt, _ := runDurableWorkload(fsys, genesis, steps)
				fsys.Recover()
				rec, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
				if err != nil {
					t.Fatalf("crash point %d: recovery failed: %v", cp, err)
				}
				v := rec.Version()
				if v < ackedAt {
					t.Fatalf("crash point %d: durability violation: acked version %d, recovered %d",
						cp, ackedAt, v)
				}
				want, ok := digests[v]
				if !ok {
					t.Fatalf("crash point %d: recovered to unknown version %d", cp, v)
				}
				if got := engineDigest(t, rec, users, query); got != want {
					t.Fatalf("crash point %d: recovered state at version %d diverged from oracle", cp, v)
				}
			}
			t.Logf("verified %d crash points over %d fs ops (stride %d)", points, totalOps, stride)
		})
	}
}

// TestWALSyncFailureThenRetry covers the transient-fault path: a failed
// fsync must leave the engine on its prior state, a retry of the same
// batch must succeed without double-applying, and a crash right after
// the failed sync must recover to a state the oracle recognizes.
func TestWALSyncFailureThenRetry(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	failAt := 0 // index of the first non-analyze step past the genesis open
	opts := func(fsys vfs.FS) DurableOptions {
		return DurableOptions{FS: fsys} // no auto-checkpoints: ops stay predictable
	}

	t.Run("retry", func(t *testing.T) {
		fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
		eng, err := OpenDurable(durTestDir, genesis, durableTestConfig(), opts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(steps[failAt].muts); err != nil {
			t.Fatal(err)
		}
		v := eng.Version()

		// The next append is one write (big chunk) at op Ops(), then one
		// sync at op Ops()+1: fail the sync.
		fsys.SetWriteChunk(1 << 20)
		fsys.FailSyncAtOp(fsys.Ops() + 1)
		if err := eng.Apply(steps[failAt+1].muts); err == nil {
			t.Fatal("Apply acknowledged a batch whose fsync failed")
		}
		if eng.Version() != v {
			t.Fatalf("failed Apply advanced the version to %d", eng.Version())
		}

		// Retry: the WAL heals its tail (truncating the unacked record)
		// and the same batch lands exactly once.
		if err := eng.Apply(steps[failAt+1].muts); err != nil {
			t.Fatalf("retry after transient sync failure: %v", err)
		}
		if eng.Version() != v+1 {
			t.Fatalf("retry landed at version %d, want %d", eng.Version(), v+1)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenDurable(durTestDir, nil, durableTestConfig(), opts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		if got := engineDigest(t, rec, users, query); got != digests[rec.Version()] {
			t.Fatal("state after failed-sync retry diverged from oracle")
		}
	})

	t.Run("crash-after-failed-sync", func(t *testing.T) {
		fsys := vfs.NewFaultFS(vfs.KeepUnsynced)
		eng, err := OpenDurable(durTestDir, genesis, durableTestConfig(), opts(fsys))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Apply(steps[failAt].muts); err != nil {
			t.Fatal(err)
		}
		acked := eng.Version()
		fsys.SetWriteChunk(1 << 20)
		fsys.FailSyncAtOp(fsys.Ops() + 1)
		if err := eng.Apply(steps[failAt+1].muts); err == nil {
			t.Fatal("Apply acknowledged a batch whose fsync failed")
		}
		fsys.SetCrashAtOp(fsys.Ops()) // crash before anything else happens
		fsys.Recover()
		rec, err := OpenDurable(durTestDir, nil, durableTestConfig(), opts(fsys))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		// The unacked record was complete; KeepUnsynced may surface it, so
		// the recovered version is acked or acked+1 — and either way the
		// state must match the oracle at that version.
		v := rec.Version()
		if v < acked || v > acked+1 {
			t.Fatalf("recovered version %d outside [%d,%d]", v, acked, acked+1)
		}
		if got := engineDigest(t, rec, users, query); got != digests[v] {
			t.Fatalf("recovered state at version %d diverged from oracle", v)
		}
	})
}

// TestRecoveryCutsCheckpointDebtAtOpen: records replayed during
// recovery count toward CheckpointEvery, and the due checkpoint must be
// cut at the end of OpenDurable — not inside the first live write's
// critical section (the regression), and not never.
func TestRecoveryCutsCheckpointDebtAtOpen(t *testing.T) {
	genesis, steps, _, _, _ := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)

	// First life: no auto-checkpoints, so four applied batches all sit in
	// the WAL past the genesis checkpoint.
	eng, err := OpenDurable(durTestDir, genesis, durableTestConfig(), DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	var rest []durStep
	applied := 0
	for i, s := range steps {
		if s.analyze {
			continue
		}
		if applied == 4 {
			rest = steps[i:]
			break
		}
		if err := eng.Apply(s.muts); err != nil {
			t.Fatal(err)
		}
		applied++
	}
	acked := eng.Version()
	fsys.SetCrashAtOp(fsys.Ops()) // crash without Close: debt stays in the WAL
	fsys.Recover()

	// Second life: CheckpointEvery=3 < 4 replayed records, so the debt is
	// due the moment recovery finishes.
	rec, err := OpenDurable(durTestDir, nil, durableTestConfig(),
		DurableOptions{CheckpointEvery: 3, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if v := rec.Version(); v != acked {
		t.Fatalf("recovered version %d, want %d", v, acked)
	}
	ck, err := store.LoadLatest(fsys, durTestDir+"/ckpt")
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after recovery: %v", err)
	}
	if ck.Meta.Version != acked {
		t.Fatalf("checkpoint at version %d after open, want the debt settled at %d",
			ck.Meta.Version, acked)
	}
	seqAfterOpen := ck.Seq

	// The first live write must NOT cut a checkpoint — the debt was
	// settled at open, so its counter starts at zero again.
	var next durStep
	for _, s := range rest {
		if !s.analyze {
			next = s
			break
		}
	}
	if next.muts == nil {
		t.Fatal("workload too short for a post-recovery step")
	}
	if err := rec.Apply(next.muts); err != nil {
		t.Fatal(err)
	}
	ck2, err := store.LoadLatest(fsys, durTestDir+"/ckpt")
	if err != nil || ck2 == nil {
		t.Fatal(err)
	}
	if ck2.Seq != seqAfterOpen {
		t.Fatalf("first post-recovery Apply cut a checkpoint (seq %d -> %d)",
			seqAfterOpen, ck2.Seq)
	}
	if v := rec.Version(); v != acked+1 {
		t.Fatalf("post-recovery Apply at version %d, want %d", v, acked+1)
	}
}

// TestDurableReopenResumesExactVersion runs the durability subsystem on
// the real filesystem (in a temp dir): close/reopen resumes the exact
// version and digest, and the recovered engine accepts new writes.
func TestDurableReopenResumesExactVersion(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	dir := t.TempDir() + "/state"

	eng, err := OpenDurable(dir, genesis, durableTestConfig(), DurableOptions{CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.analyze {
			err = eng.Analyze()
		} else {
			err = eng.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	v := eng.Version()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurable(dir, nil, durableTestConfig(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Version() != v {
		t.Fatalf("reopened at version %d, want %d", re.Version(), v)
	}
	if got := engineDigest(t, re, users, query); got != digests[v] {
		t.Fatal("reopened state diverged from oracle")
	}

	// The recovered engine is live: new writes append beyond the replayed
	// WAL and survive another reopen.
	ids := graph.IDSourceFor(re.Graph())
	n := graph.NewNode(ids.NextNode(), graph.TypeUser)
	if err := re.Apply([]graph.Mutation{{Kind: graph.MutAddNode, Node: n}}); err != nil {
		t.Fatal(err)
	}
	if re.Version() != v+1 {
		t.Fatalf("post-recovery Apply at version %d, want %d", re.Version(), v+1)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third, err := OpenDurable(dir, nil, durableTestConfig(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if third.Version() != v+1 || third.Graph().Node(n.ID) == nil {
		t.Fatalf("second reopen lost the post-recovery write (version %d)", third.Version())
	}
	if err := third.Close(); err != nil {
		t.Fatal(err)
	}
}

// leaderMissingFirstSegment leaves a durable tree whose checkpoint
// covers only the genesis state while the WAL segment holding the first
// records after it has been deleted: 40 one-node writes over 256-byte
// segments with no automatic checkpoints, a crash, then the oldest
// segment removed. Nothing on disk can replay those records, so every
// reader of the tree must refuse it rather than skip ahead.
func leaderMissingFirstSegment(t *testing.T) *vfs.FaultFS {
	t.Helper()
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	opts := DurableOptions{SegmentBytes: 256, FS: fsys}
	eng, err := OpenDurable(durTestDir, nil, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		n := graph.NewNode(graph.IDSourceFor(eng.Graph()).NextNode(), graph.TypeUser)
		if err := eng.Apply([]graph.Mutation{{Kind: graph.MutAddNode, Node: n}}); err != nil {
			t.Fatal(err)
		}
	}
	fsys.SetCrashAtOp(fsys.Ops()) // crash without Close: no checkpoint covers the writes
	fsys.Recover()
	names, err := fsys.ReadDir(durTestDir + "/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("want several WAL segments, got %v", names)
	}
	if err := fsys.Remove(durTestDir + "/wal/" + names[0]); err != nil {
		t.Fatal(err)
	}
	return fsys
}

// TestRecoveryFailsClosedOnMissingSegment: recovery must not reopen at a
// version short of the last acknowledged write because the records
// between the checkpoint and the first surviving segment are gone.
func TestRecoveryFailsClosedOnMissingSegment(t *testing.T) {
	fsys := leaderMissingFirstSegment(t)
	eng, err := OpenDurable(durTestDir, nil, Config{}, DurableOptions{SegmentBytes: 256, FS: fsys})
	if !errors.Is(err, wal.ErrGone) {
		v := uint64(0)
		if eng != nil {
			v = eng.Version()
		}
		t.Fatalf("OpenDurable with the first WAL segment missing: err=%v (version %d), want wal.ErrGone", err, v)
	}
}
