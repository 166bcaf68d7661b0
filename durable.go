package socialscope

// Durability: write-ahead logging and checkpointing for the engine.
//
// Every Apply batch is encoded and fsynced to the WAL *before* the new
// state is published; Analyze appends a marker record (the derivation
// is deterministic given the base graph and Config, so the record
// carries no payload). Checkpoints capture the serving graph through
// structural-sharing deltas (internal/store) together with the engine
// version, the WAL position they cover and the derived id ranges.
//
// Records are read back only through wal.Tailer. Recovery folds the latest
// checkpoint chain, drains the WAL from the checkpoint's LSN + 1 through
// the same Apply/Analyze code paths that produced it, and only then
// opens the log for writing at the drained position — exactly how a
// follower's Promote takes over. A recovered engine therefore resumes at
// exactly the version and state the last acknowledged write left
// behind, and a log that cannot supply the records the checkpoint
// expects (a missing segment) fails the open with wal.ErrGone instead
// of skipping them.
//
// Guarantee: when Apply (or Analyze) returns nil on a durable engine,
// the change survives a crash. The converse is one-directional — a
// batch whose Apply errored mid-sync may still be on disk and will
// replay after a crash, which is safe: it was validated before logging,
// and replay applies a consistent prefix of attempted writes.

import (
	"errors"
	"fmt"
	"path"

	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/store"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
)

// ErrFollower rejects writes on a follower engine: it replicates a
// leader's WAL and cannot originate changes until Promote.
var ErrFollower = errors.New("socialscope: follower engine is read-only (Promote to accept writes)")

// WAL record kinds.
const (
	recBatch   byte = 1 // payload: a graph.AppendMutations-encoded batch
	recAnalyze byte = 2 // no payload: re-derive (deterministic) on replay
)

const (
	walSubdir  = "wal"
	ckptSubdir = "ckpt"
)

// DurableOptions tunes the durability subsystem. The zero value is
// ready to use.
type DurableOptions struct {
	// SegmentBytes rotates WAL segments past this size
	// (wal.DefaultSegmentBytes when 0).
	SegmentBytes int64
	// CheckpointEvery writes a checkpoint automatically after this many
	// Apply batches; 0 means checkpoints happen only on Checkpoint() and
	// Close().
	CheckpointEvery int
	// MaxChain bounds how many delta checkpoints stack on a full one
	// (store.DefaultMaxChain when 0).
	MaxChain int
	// FS overrides the filesystem — the fault-injection harness plugs in
	// here. Nil means the real one (vfs.OS).
	FS vfs.FS
}

// durable is the engine's durability state, guarded by Engine.mu.
type durable struct {
	log       *wal.Log
	ckpt      *store.Checkpointer
	every     int
	sinceCkpt int
}

// OpenDurable opens (or creates) a durable engine rooted at dir. On a
// fresh directory the engine starts from genesis (nil means an empty
// graph) and immediately checkpoints it, so the seed state — which
// predates the WAL — survives crashes too. On an existing directory
// genesis is ignored: the engine is rebuilt from the latest checkpoint
// plus a drain of the WAL tail, resuming at the exact version the last
// acknowledged write produced.
func OpenDurable(dir string, genesis *Graph, cfg Config, opts DurableOptions) (*Engine, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rec, err := store.LoadLatest(opts.FS, path.Join(dir, ckptSubdir))
	if err != nil {
		return nil, fmt.Errorf("socialscope: recovery: %w", err)
	}
	fresh := rec == nil
	if fresh {
		if genesis == nil {
			genesis = graph.New()
		}
		rec = &store.Recovered{Graph: genesis}
	}
	e := &Engine{cfg: cfg, met: newEngineMetrics(cfg.Obs)}
	e.publishCheckpoint(rec)

	e.mu.Lock()
	defer e.mu.Unlock()
	// Crash-recovery semantics: every decodable record past the
	// checkpoint, including a complete-but-unacknowledged tail.
	tail := wal.NewTailer(opts.FS, path.Join(dir, walSubdir), rec.Meta.WalLSN+1)
	if _, err := tail.Poll(wal.DrainConfirm, 0, e.replayRecord); err != nil {
		return nil, fmt.Errorf("socialscope: wal replay: %w", err)
	}
	if err := e.leadLocked(dir, opts, tail.NextLSN(), rec.Seq, rec.Meta.WalLSN); err != nil {
		return nil, fmt.Errorf("socialscope: recovery: %w", err)
	}
	if fresh {
		// Make the genesis state durable before acknowledging the open.
		if err := e.checkpointLocked(); err != nil {
			_ = e.dur.log.Close()
			return nil, fmt.Errorf("socialscope: genesis checkpoint: %w", err)
		}
	}
	return e, nil
}

// publishCheckpoint makes the state a checkpoint chain captured the
// engine's current one. Callers hold e.mu or own e exclusively.
func (e *Engine) publishCheckpoint(rec *store.Recovered) {
	e.publish(&engineState{
		g:       rec.Graph,
		derived: rec.Meta.Derived,
		disc:    discovery.NewDiscoverer(rec.Graph, e.cfg.ItemType),
		version: rec.Meta.Version,
	})
}

// leadLocked makes e the writer of the durable tree at dir, once the
// caller has drained its WAL up to next: it opens the log there and
// resumes the checkpoint chain at seq, whose manifest covers the log
// through ckptLSN. It refuses a log that resumes anywhere but next —
// the drain and the log disagree only when another writer is appending.
// The records between ckptLSN and next are inherited checkpoint debt,
// settled here rather than inside the first live write's critical
// section, so the WAL tail shrinks even if no write ever arrives.
// Callers hold e.mu.
func (e *Engine) leadLocked(dir string, opts DurableOptions, next, seq, ckptLSN uint64) error {
	log, err := wal.Open(opts.FS, path.Join(dir, walSubdir), wal.Options{
		SegmentBytes: opts.SegmentBytes,
		FirstLSN:     next,
		Obs:          e.cfg.Obs,
	})
	if err != nil {
		return err
	}
	if got := log.NextLSN(); got != next {
		_ = log.Close()
		return fmt.Errorf("log resumes at LSN %d but the drained tail ends at %d — "+
			"is another writer (an old leader) still appending?", got, next)
	}
	e.dur = &durable{
		log:       log,
		ckpt:      store.NewCheckpointer(opts.FS, path.Join(dir, ckptSubdir), opts.MaxChain, seq, e.cfg.Obs),
		every:     opts.CheckpointEvery,
		sinceCkpt: int(next - 1 - ckptLSN),
	}
	if e.dur.every > 0 && e.dur.sinceCkpt >= e.dur.every {
		_ = e.checkpointLocked()
	}
	return nil
}

// replayRecord decodes and applies one WAL record through the same
// paths a live write takes, with live=false so nothing is re-logged.
// Called with e.mu held, by the recovery drain and by follower tailing.
func (e *Engine) replayRecord(lsn uint64, kind byte, payload []byte) error {
	switch kind {
	case recBatch:
		muts, derr := graph.DecodeMutations(payload)
		if derr != nil {
			return fmt.Errorf("record %d: %w", lsn, derr)
		}
		return e.applyLocked(muts, false)
	case recAnalyze:
		return e.analyzeLocked(false)
	default:
		return fmt.Errorf("record %d: unknown kind %d", lsn, kind)
	}
}

// logRecord appends and fsyncs one WAL record; called with e.mu held,
// before the corresponding state is published. On error nothing was
// acknowledged: the caller must not publish, and the log heals its tail
// on the next append.
func (e *Engine) logRecord(kind byte, payload []byte) error {
	if e.dur == nil {
		return nil
	}
	if _, err := e.dur.log.AppendSync(kind, payload); err != nil {
		return fmt.Errorf("socialscope: wal append: %w", err)
	}
	return nil
}

// maybeCheckpointLocked counts an applied batch and, with
// CheckpointEvery set, cuts a checkpoint when due. Replay never gets
// here with durability attached: recovery drains before the log opens
// and a follower owns no log, so replayed records reach the count as
// the debt leadLocked inherits. Checkpoint errors here are deliberately
// swallowed: the batch is already durable in the WAL, recovery replays
// it, and the next explicit Checkpoint or Close surfaces persistent
// trouble.
func (e *Engine) maybeCheckpointLocked() {
	if e.dur == nil {
		return
	}
	e.dur.sinceCkpt++
	if e.dur.every <= 0 || e.dur.sinceCkpt < e.dur.every {
		return
	}
	_ = e.checkpointLocked()
}

// Checkpoint durably captures the engine's current state and prunes WAL
// segments the checkpoint made redundant. Only valid on engines opened
// with OpenDurable.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return fmt.Errorf("socialscope: Checkpoint on an engine without durability (use OpenDurable)")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	st := e.state.Load()
	meta := store.Meta{Version: st.version, WalLSN: e.dur.log.NextLSN() - 1, Derived: st.derived}
	if err := e.dur.ckpt.Save(st.g, meta); err != nil {
		return err
	}
	e.dur.sinceCkpt = 0
	// Segments at or below the covered LSN are garbage now; a failure
	// here only delays reclamation.
	_ = e.dur.log.TruncateThrough(meta.WalLSN)
	return nil
}

// Close cuts a final checkpoint and closes the WAL. The engine keeps
// serving reads; subsequent writes fail. No-op on engines without
// durability and on followers (a follower owns nothing on disk).
func (e *Engine) Close() error {
	if e.dur == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ckErr := e.checkpointLocked()
	clErr := e.dur.log.Close()
	if ckErr != nil {
		return ckErr
	}
	return clErr
}

// follower is the replication state of an engine opened with
// OpenFollower, guarded by Engine.mu. It owns no WAL handle and no
// checkpointer — only read paths over the leader's durable tree.
type follower struct {
	dir   string
	opts  DurableOptions
	watch *store.Watcher
	tail  *wal.Tailer
	// Latest manifest observed (or folded): its WAL watermark doubles as
	// the external confirmation for tail records, its seq seeds the
	// checkpointer on promotion, and its LSN sets the checkpoint debt.
	manSeq uint64
	manLSN uint64
}

// lag is the count of confirmed WAL records not yet applied: those the
// last polled manifest covers, or the tailer has seen confirmed,
// whichever reaches further. The unconfirmed tail record is not counted: a
// follower may not apply it.
func (f *follower) lag() uint64 {
	return max(f.manLSN, f.tail.ConfirmedLSN()) - (f.tail.NextLSN() - 1)
}

// OpenFollower opens a read-only engine over a leader's durable tree:
// it folds the latest checkpoint chain, then replays new WAL records as
// the leader fsyncs them — each CatchUp publishing fresh state through
// the same RCU pointer queries read. Writes are rejected with
// ErrFollower until Promote. The leader process keeps exclusive
// ownership of the tree; the follower only ever reads it, so any number
// of followers can share one tree (a network filesystem, a replicated
// blob store) without coordination.
//
// The directory must already hold a checkpoint — start the leader
// first. genesis is deliberately absent from the signature: a follower
// has no authority to seed state.
func OpenFollower(dir string, cfg Config, opts DurableOptions) (*Engine, error) {
	if opts.FS == nil {
		opts.FS = vfs.OS{}
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	rec, err := store.LoadLatest(opts.FS, path.Join(dir, ckptSubdir))
	if err != nil {
		return nil, fmt.Errorf("socialscope: follower: %w", err)
	}
	if rec == nil {
		return nil, fmt.Errorf("socialscope: follower: no checkpoint in %s — start the leader first", dir)
	}
	e := &Engine{cfg: cfg, met: newEngineMetrics(cfg.Obs)}
	e.publishCheckpoint(rec)
	e.fol = &follower{
		dir:    dir,
		opts:   opts,
		watch:  store.NewWatcher(opts.FS, path.Join(dir, ckptSubdir), rec.Seq),
		tail:   wal.NewTailer(opts.FS, path.Join(dir, walSubdir), rec.Meta.WalLSN+1),
		manSeq: rec.Seq,
		manLSN: rec.Meta.WalLSN,
	}
	e.isFol.Store(true)

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.catchUpLocked(0, false); err != nil {
		return nil, fmt.Errorf("socialscope: follower: initial catch-up: %w", err)
	}
	return e, nil
}

// ReplicationLag reports how many confirmed WAL records a follower has
// yet to apply — the staleness a routing tier weighs when picking the
// most-caught-up replica to promote. ok is false on non-followers. Zero
// lag means the follower has applied everything the leader has
// confirmed; the unconfirmed tail record (bounded staleness) is not
// counted because the follower is forbidden to apply it.
func (e *Engine) ReplicationLag() (lag uint64, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fol == nil {
		return 0, false
	}
	return e.fol.lag(), true
}

// CatchUp polls the leader's manifest and WAL once, folding newly
// confirmed records into the follower's state (at most max records when
// max > 0) and re-basing onto a newer checkpoint chain if the tail
// position was checkpointed away. It returns the number of records
// applied. Zero with a nil error means the follower is caught up — the
// leader's last record stays invisible until a later write or
// checkpoint confirms it (bounded staleness; never bytes the leader may
// retract). Call it on a timer; each applied record publishes a new
// queryable version.
func (e *Engine) CatchUp(max int) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.catchUpLocked(max, false)
}

// catchUpLocked is CatchUp's body; callers hold e.mu. drain selects
// crash-recovery semantics — deliver every decodable record including a
// complete-but-unacknowledged tail — and is only valid when the leader
// is known dead (Promote).
func (e *Engine) catchUpLocked(max int, drain bool) (int, error) {
	f := e.fol
	if f == nil {
		return 0, fmt.Errorf("socialscope: CatchUp on a non-follower engine")
	}
	// Keep the replication-lag gauge current on every poll, whatever
	// path returns (the tail and confirmation point both may move).
	defer func() {
		if f := e.fol; f != nil {
			e.met.lag.SetUint(f.lag())
		}
	}()
	if man, changed, err := f.watch.Poll(); err != nil {
		return 0, fmt.Errorf("socialscope: follower: manifest watch: %w", err)
	} else if changed {
		f.manSeq, f.manLSN = man.Seq, man.WalLSN
	}
	total := 0
	for {
		budget := 0
		if max > 0 {
			if budget = max - total; budget <= 0 {
				return total, nil
			}
		}
		confirm := f.manLSN
		if drain {
			confirm = wal.DrainConfirm
		}
		n, err := f.tail.Poll(confirm, budget, e.replayRecord)
		total += n
		if err == nil {
			return total, nil
		}
		if errors.Is(err, wal.ErrGone) {
			// The leader checkpointed past our tail position: fold the new
			// chain instead of replaying records that no longer exist.
			if err := e.rebaseLocked(); err != nil {
				return total, err
			}
			continue
		}
		return total, fmt.Errorf("socialscope: follower: %w", err)
	}
}

// rebaseLocked reloads the latest checkpoint chain and re-points the
// tailer past it. Versions may skip forward — every version ever
// published was still once a leader version — but never backward. A
// checkpoint that does not cover the missing tail position cannot help:
// re-basing onto it would meet the same gap again, so the gap is
// reported as wal.ErrGone instead.
func (e *Engine) rebaseLocked() error {
	f := e.fol
	rec, err := store.LoadLatest(f.opts.FS, path.Join(f.dir, ckptSubdir))
	if err != nil {
		return fmt.Errorf("socialscope: follower re-base: %w", err)
	}
	if rec == nil {
		return fmt.Errorf("socialscope: follower re-base: checkpoint chain vanished")
	}
	if next := f.tail.NextLSN(); rec.Meta.WalLSN < next {
		return fmt.Errorf("socialscope: follower re-base: checkpoint %d covers the WAL through LSN %d, "+
			"but LSN %d is missing from it: %w", rec.Seq, rec.Meta.WalLSN, next, wal.ErrGone)
	}
	if cur := e.state.Load(); rec.Meta.Version < cur.version {
		return fmt.Errorf("socialscope: follower re-base: checkpoint at version %d behind follower at %d",
			rec.Meta.Version, cur.version)
	}
	e.publishCheckpoint(rec)
	f.watch = store.NewWatcher(f.opts.FS, path.Join(f.dir, ckptSubdir), rec.Seq)
	f.tail = wal.NewTailer(f.opts.FS, path.Join(f.dir, walSubdir), rec.Meta.WalLSN+1)
	f.manSeq, f.manLSN = rec.Seq, rec.Meta.WalLSN
	return nil
}

// Promote upgrades a follower into a writable leader after the previous
// leader has died. It drains the WAL with crash-recovery semantics —
// including a complete-but-unacknowledged tail record, exactly what the
// dead leader's own recovery would have replayed — then takes over the
// log at the recovered LSN and the checkpoint chain at its sequence.
// The caller must ensure the old leader is actually gone: two writers
// on one WAL directory corrupt it. Promote cross-checks that the log
// resumes at the LSN the drain reached and refuses otherwise.
func (e *Engine) Promote() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fol
	if f == nil {
		return fmt.Errorf("socialscope: Promote on a non-follower engine")
	}
	if _, err := e.catchUpLocked(0, true); err != nil {
		return fmt.Errorf("socialscope: promote: drain: %w", err)
	}
	if err := e.leadLocked(f.dir, f.opts, f.tail.NextLSN(), f.manSeq, f.manLSN); err != nil {
		return fmt.Errorf("socialscope: promote: %w", err)
	}
	e.fol = nil
	e.isFol.Store(false)
	e.met.lag.Set(0) // a leader has no replication lag
	return nil
}
