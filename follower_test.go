package socialscope

// Replication tests: follower engines tailing a leader's WAL, and the
// leader-crash → follower-promote differential harness. The follower's
// reads consume no FaultFS operations, so the crash-point space of the
// replicated pair is identical to the single-engine harness — and a
// twin filesystem driven through the same workload without a follower
// reaches the same post-crash disk, which makes promotion exactly
// comparable to leader crash recovery.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"socialscope/internal/obs"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
)

// followerPump drains everything currently confirmed into the follower
// one record at a time, verifying the staleness contract on each newly
// published version: versions advance strictly monotonically, every one
// of them is a version the oracle (leader) once published, and the
// state digest at it is byte-identical to the oracle's. Pump errors are
// returned (a crashed filesystem mid-run), verification failures are
// fatal.
func followerPump(t *testing.T, fol *Engine, lastPub *uint64, digests map[uint64]string, users []NodeID, query string) error {
	t.Helper()
	for {
		n, err := fol.CatchUp(1)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		v := fol.Version()
		if v <= *lastPub {
			t.Fatalf("follower version not monotone: published %d after %d", v, *lastPub)
		}
		want, ok := digests[v]
		if !ok {
			t.Fatalf("follower published version %d the leader never acknowledged", v)
		}
		if got := engineDigest(t, fol, users, query); got != want {
			t.Fatalf("follower state at version %d diverged from oracle", v)
		}
		*lastPub = v
	}
}

func TestFollowerTailsLeaderLive(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	fsys.SetWriteChunk(32)
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := OpenFollower(durTestDir, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	if !fol.IsFollower() {
		t.Fatal("IsFollower() false on a follower")
	}
	if err := fol.Apply(steps[0].muts); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower Apply: want ErrFollower, got %v", err)
	}
	if err := fol.Analyze(); !errors.Is(err, ErrFollower) {
		t.Fatalf("follower Analyze: want ErrFollower, got %v", err)
	}

	lastPub := fol.Version()
	for _, s := range steps {
		if s.analyze {
			err = leader.Analyze()
		} else {
			err = leader.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := followerPump(t, fol, &lastPub, digests, users, query); err != nil {
			t.Fatal(err)
		}
		// Bounded staleness: the follower is at most one acknowledged
		// record behind the leader (the unconfirmed tail record).
		if v := fol.Version(); v+1 < leader.Version() {
			t.Fatalf("follower at version %d, leader at %d — staleness unbounded", v, leader.Version())
		}
	}
	// The leader's final checkpoint (Close) confirms the tail: the
	// follower converges on the exact last acknowledged version.
	acked := leader.Version()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := followerPump(t, fol, &lastPub, digests, users, query); err != nil {
		t.Fatal(err)
	}
	if v := fol.Version(); v != acked {
		t.Fatalf("follower converged at version %d, leader acknowledged %d", v, acked)
	}
}

func TestFollowerRebasesOntoNewCheckpointChain(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	// The follower attaches at genesis — and then never polls while the
	// leader runs the whole stream. CheckpointEvery=4 truncates the WAL
	// repeatedly, so the follower's tail position is long gone.
	fol, err := OpenFollower(durTestDir, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	genesisV := fol.Version()
	for _, s := range steps {
		if s.analyze {
			err = leader.Analyze()
		} else {
			err = leader.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	acked := leader.Version()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	// One catch-up: the tailer reports its records truncated away, the
	// follower re-bases onto the latest chain and replays only the tail.
	if _, err := fol.CatchUp(0); err != nil {
		t.Fatalf("catch-up across truncation: %v", err)
	}
	v := fol.Version()
	if v != acked {
		t.Fatalf("re-based follower at version %d, want %d", v, acked)
	}
	if v <= genesisV {
		t.Fatalf("follower never advanced past genesis version %d", genesisV)
	}
	if got := engineDigest(t, fol, users, query); got != digests[v] {
		t.Fatal("re-based follower diverged from oracle")
	}
}

func TestPromoteAfterCleanLeaderShutdown(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := OpenFollower(durTestDir, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	var final durStep
	for i, s := range steps {
		if i == len(steps)-1 {
			final = s // held back: the promoted follower writes it
			break
		}
		if s.analyze {
			err = leader.Analyze()
		} else {
			err = leader.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	acked := leader.Version()
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}

	if err := fol.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if fol.IsFollower() {
		t.Fatal("IsFollower() still true after Promote")
	}
	if v := fol.Version(); v != acked {
		t.Fatalf("promoted at version %d, want the last acknowledged %d", v, acked)
	}
	if got := engineDigest(t, fol, users, query); got != digests[acked] {
		t.Fatal("promoted state diverged from oracle")
	}
	// The promoted engine owns the log now: the held-back step applies,
	// survives a crash, and recovers — the full leader contract.
	if final.analyze {
		err = fol.Analyze()
	} else {
		err = fol.Apply(final.muts)
	}
	if err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	want := fol.Version()
	if want != acked+1 {
		t.Fatalf("post-promote write at version %d, want %d", want, acked+1)
	}
	fsys.SetCrashAtOp(fsys.Ops())
	fsys.Recover()
	rec, err := OpenDurable(durTestDir, nil, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatalf("recovery after promoted write: %v", err)
	}
	if v := rec.Version(); v != want {
		t.Fatalf("promoted write lost: recovered version %d, want %d", v, want)
	}
	if got := engineDigest(t, rec, users, query); got != digests[want] {
		t.Fatal("recovered post-promote state diverged from oracle")
	}
}

// TestReplicationPairDifferential is the tentpole harness: at EVERY
// filesystem operation boundary, under both loss models, crash the
// leader out from under a live-tailing follower and assert that
//
//	(a) every version the follower ever published was digest-identical
//	    to the never-crashed oracle at that version (checked inside
//	    followerPump, record by record), and
//	(b) the follower promotes to exactly the version the dead leader's
//	    own crash recovery would have resumed at — verified against a
//	    twin filesystem driven through the identical schedule without a
//	    follower (follower reads consume no ops, so the crash points
//	    coincide), at or past the last acknowledged write.
func TestReplicationPairDifferential(t *testing.T) {
	genesis, steps, digests, users, query := buildDurabilityWorkload(t)
	for _, tc := range []struct {
		name string
		mode vfs.LossMode
	}{
		{"drop-unsynced", vfs.DropUnsynced},
		{"keep-unsynced", vfs.KeepUnsynced},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden := vfs.NewFaultFS(tc.mode)
			golden.SetWriteChunk(32)
			if _, err := runDurableWorkload(golden, genesis, steps); err != nil {
				t.Fatal(err)
			}
			totalOps := golden.Ops()

			stride := int64(1)
			if testing.Short() {
				stride = 7
			}
			points, promotions := 0, 0
			for cp := int64(1); cp <= totalOps; cp += stride {
				points++
				fsys := vfs.NewFaultFS(tc.mode)
				fsys.SetWriteChunk(32)
				fsys.SetCrashAtOp(cp)

				leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
				if err != nil {
					// Crash before the durable tree exists: nothing to follow,
					// nothing to promote. Single-engine recovery at this point
					// is TestCrashRecoveryDifferential's job.
					continue
				}
				acked := leader.Version()
				fol, err := OpenFollower(durTestDir, durableTestConfig(), durableTestOpts(fsys))
				if err != nil {
					t.Fatalf("crash point %d: leader open succeeded but follower open failed: %v", cp, err)
				}
				lastPub := fol.Version()
				pump := func() error {
					return followerPump(t, fol, &lastPub, digests, users, query)
				}
				if err := pump(); err == nil {
					for _, s := range steps {
						if s.analyze {
							err = leader.Analyze()
						} else {
							err = leader.Apply(s.muts)
						}
						if err != nil {
							break // the leader just died
						}
						acked = leader.Version()
						if err = pump(); err != nil {
							break
						}
					}
					if err == nil {
						err = leader.Close()
					}
				}

				// The machine reboots; the follower process survived with its
				// published state intact (everything it published was synced).
				fsys.Recover()
				if err := pump(); err != nil {
					t.Fatalf("crash point %d: post-recovery catch-up: %v", cp, err)
				}
				if err := fol.Promote(); err != nil {
					t.Fatalf("crash point %d: promote: %v", cp, err)
				}
				promotions++
				vP := fol.Version()
				if vP < acked {
					t.Fatalf("crash point %d: durability violation: acked %d, promoted at %d", cp, acked, vP)
				}
				want, ok := digests[vP]
				if !ok {
					t.Fatalf("crash point %d: promoted to unknown version %d", cp, vP)
				}
				if got := engineDigest(t, fol, users, query); got != want {
					t.Fatalf("crash point %d: promoted state at version %d diverged from oracle", cp, vP)
				}

				// Twin filesystem, identical schedule, no follower: leader
				// crash recovery must land on the same version.
				twin := vfs.NewFaultFS(tc.mode)
				twin.SetWriteChunk(32)
				twin.SetCrashAtOp(cp)
				_, _ = runDurableWorkload(twin, genesis, steps)
				twin.Recover()
				rec, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(twin))
				if err != nil {
					t.Fatalf("crash point %d: twin recovery failed: %v", cp, err)
				}
				if vR := rec.Version(); vR != vP {
					t.Fatalf("crash point %d: promote landed at version %d, leader recovery at %d", cp, vP, vR)
				}
			}
			t.Logf("verified %d crash points (%d promotions) over %d fs ops (stride %d)",
				points, promotions, totalOps, stride)
		})
	}
}

// TestFollowerConcurrentReads exercises the RCU contract under the race
// detector: queries run against the follower while it replays records
// and while the leader keeps writing.
func TestFollowerConcurrentReads(t *testing.T) {
	genesis, steps, _, users, query := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	fol, err := OpenFollower(durTestDir, durableTestConfig(), durableTestOpts(fsys))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the replication loop
		defer wg.Done()
		for {
			if _, err := fol.CatchUp(0); err != nil {
				t.Errorf("catch-up: %v", err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(u NodeID) { // concurrent readers
			defer wg.Done()
			for {
				if _, err := fol.SearchCtx(context.Background(), u, query); err != nil {
					t.Errorf("follower query: %v", err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(users[i%len(users)])
	}
	for _, s := range steps {
		if s.analyze {
			err = leader.Analyze()
		} else {
			err = leader.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	if _, err := fol.CatchUp(0); err != nil {
		t.Fatal(err)
	}
	if v := fol.Version(); v != leader.Version() {
		t.Fatalf("follower converged at %d, leader at %d", v, leader.Version())
	}
}

// TestFollowerFailsClosedOnMissingSegment: a follower whose tail
// position is gone and whose latest checkpoint does not move it forward
// must report the gap, not re-base onto the same checkpoint forever.
func TestFollowerFailsClosedOnMissingSegment(t *testing.T) {
	fsys := leaderMissingFirstSegment(t)
	done := make(chan error, 1)
	go func() {
		_, err := OpenFollower(durTestDir, Config{}, DurableOptions{SegmentBytes: 256, FS: fsys})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wal.ErrGone) {
			t.Fatalf("OpenFollower with the first WAL segment missing: %v, want wal.ErrGone", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OpenFollower still re-basing after 10s")
	}
}

// TestReplicationLagMatchesGauge pins the follower's one watermark:
// ReplicationLag and the ss_replication_lag_records gauge agree after a
// partial and a full CatchUp, and both read 0 once the follower is
// promoted.
func TestReplicationLagMatchesGauge(t *testing.T) {
	genesis, steps, _, _, _ := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	// One WAL segment and no automatic checkpoints: the explicit
	// checkpoint below confirms records the follower can still read.
	opts := DurableOptions{FS: fsys}
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := durableTestConfig()
	cfg.Obs = reg
	fol, err := OpenFollower(durTestDir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range steps[:4] {
		if s.analyze {
			err = leader.Analyze()
		} else {
			err = leader.Apply(s.muts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, want uint64) {
		t.Helper()
		lag, ok := fol.ReplicationLag()
		if !ok {
			t.Fatalf("%s: ReplicationLag not ok on a follower", stage)
		}
		if gauge := reg.Snapshot()["ss_replication_lag_records"]; lag != want || gauge != float64(want) {
			t.Fatalf("%s: ReplicationLag %d, gauge %v, want both %d", stage, lag, gauge, want)
		}
	}
	if _, err := fol.CatchUp(1); err != nil {
		t.Fatal(err)
	}
	check("partial catch-up", 3)
	if _, err := fol.CatchUp(0); err != nil {
		t.Fatal(err)
	}
	check("full catch-up", 0)

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fol.Promote(); err != nil {
		t.Fatal(err)
	}
	if lag, ok := fol.ReplicationLag(); lag != 0 || ok {
		t.Fatalf("promoted: ReplicationLag (%d, %v), want (0, false)", lag, ok)
	}
	if gauge := reg.Snapshot()["ss_replication_lag_records"]; gauge != 0 {
		t.Fatalf("promoted: gauge %v, want 0", gauge)
	}
}

// TestReplicationLagSeesPastTheManifest: with no checkpoint after the
// genesis one, the only confirmation a follower has is the WAL itself —
// each record is confirmed by the bytes that follow it. A follower that
// applied one of six such records must report the rest as lag, not the
// nothing the manifest's watermark shows.
func TestReplicationLagSeesPastTheManifest(t *testing.T) {
	genesis, steps, _, _, _ := buildDurabilityWorkload(t)
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	opts := DurableOptions{FS: fsys, CheckpointEvery: 0}
	leader, err := OpenDurable(durTestDir, genesis, durableTestConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	reg := obs.NewRegistry()
	cfg := durableTestConfig()
	cfg.Obs = reg
	fol, err := OpenFollower(durTestDir, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	applies := 0
	for _, s := range steps {
		if s.analyze {
			continue
		}
		if err := leader.Apply(s.muts); err != nil {
			t.Fatal(err)
		}
		if applies++; applies == 6 {
			break
		}
	}
	if applies != 6 {
		t.Fatalf("workload has %d applies, want 6", applies)
	}
	if n, err := fol.CatchUp(1); err != nil || n != 1 {
		t.Fatalf("CatchUp(1) = %d, %v", n, err)
	}
	lag, ok := fol.ReplicationLag()
	if !ok || lag < 4 {
		t.Fatalf("follower at version %d against the leader's %d reports lag %d, %v; want at least 4",
			fol.Version(), leader.Version(), lag, ok)
	}
	if gauge := reg.Snapshot()["ss_replication_lag_records"]; gauge != float64(lag) {
		t.Fatalf("gauge %v, ReplicationLag %d", gauge, lag)
	}
	if _, err := fol.CatchUp(0); err != nil {
		t.Fatal(err)
	}
	if lag, _ := fol.ReplicationLag(); lag != 0 {
		t.Fatalf("caught up: lag %d, want 0", lag)
	}
}
