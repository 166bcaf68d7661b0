// Package store is the durable half of the Data Manager's storage role
// (Section 6, Figure 1): checkpoint files, the MANIFEST that binds them
// to internal/wal, and the Watcher followers poll it with. All file IO
// flows through vfs.FS (enforced by the vfsseam analyzer), so the
// fault-injection harness can crash it at every operation boundary.
package store

// Checkpoint files and the manifest that binds them to the WAL — the
// durable half of the engine's recovery pair (the other half is
// internal/wal). A checkpoint file carries a graph checkpoint section
// for the base graph and, when the engine has analyzed, a second
// section for the enriched graph (each full or delta — see
// graph.CkptWriter), framed with a magic, sequence metadata, the engine
// version and WAL position it captures, and a whole-file CRC. The MANIFEST names the current chain: one full
// checkpoint followed by the deltas on top of it, in order. Recovery
// reads the manifest, folds the chain through a graph.CkptReader, and
// replays the WAL from the recorded LSN.
//
// Write protocol (all through vfs, so the fault-injection harness can
// crash it at every operation):
//
//  1. checkpoint file → tmp, fsync, rename into place;
//  2. MANIFEST       → tmp, fsync, rename into place;
//  3. only then delete files no longer referenced.
//
// A crash between any two steps leaves the previous manifest — and
// therefore the previous chain — fully intact; orphaned files from an
// interrupted save are swept by the next successful one. Delta state
// lives in memory (pointer identity over live tries), so the first
// checkpoint after a restart is always full and starts a fresh chain.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path"
	"strconv"
	"strings"
	"time"

	"socialscope/internal/graph"
	"socialscope/internal/vfs"
)

const (
	manifestName = "MANIFEST"
	ckptSuffix   = ".ck"
	// DefaultMaxChain bounds how many deltas stack on one full checkpoint
	// before the chain resets; longer chains mean cheaper checkpoints but
	// slower recovery and later file reclamation.
	DefaultMaxChain = 8
)

var ckptMagic = [8]byte{'S', 'S', 'C', 'K', 'P', 'T', '0', '1'}

// ErrCkptCorrupt is returned when checkpoint files or the manifest fail
// validation.
var ErrCkptCorrupt = errors.New("store: corrupt checkpoint")

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// Meta is the engine state a checkpoint captures beyond the graphs
// themselves: the version the serving layer keys its caches by, the
// last WAL LSN the checkpoint covers, and whether the engine had an
// analyzed (enriched) graph — in which case the file carries its
// section too, since the enrichment depends on the base graph as of the
// Analyze call, which a later checkpoint's base no longer is.
type Meta struct {
	Version  uint64
	WalLSN   uint64
	Analyzed bool
}

// Manifest is the durable index of the current checkpoint chain.
type Manifest struct {
	Seq      uint64   `json:"seq"`
	Chain    []string `json:"chain"`
	Version  uint64   `json:"version"`
	WalLSN   uint64   `json:"wal_lsn"`
	Analyzed bool     `json:"analyzed"`
}

// Recovered is the result of loading the latest checkpoint chain.
type Recovered struct {
	Graph *graph.Graph
	// Analyzed is the enriched graph the checkpoint carried, nil when
	// the engine had not analyzed.
	Analyzed *graph.Graph
	Meta     Meta
	Seq      uint64
}

// Checkpointer writes checkpoint files for one graph lineage. It is not
// safe for concurrent use; the engine serializes saves on its write
// path.
type Checkpointer struct {
	fsys      vfs.FS
	dir       string
	maxChain  int
	wBase     *graph.CkptWriter
	wAnalyzed *graph.CkptWriter
	seq       uint64
	chain     []string
	met       *storeMetrics
	lastFull  int // bytes of the chain's full checkpoint, for the delta ratio
}

// NewCheckpointer returns a checkpointer writing into dir, numbering
// files after startSeq (the recovered manifest's Seq, or 0 on a fresh
// directory). Its first Save writes a full checkpoint.
func NewCheckpointer(fsys vfs.FS, dir string, maxChain int, startSeq uint64) *Checkpointer {
	if maxChain < 1 {
		maxChain = DefaultMaxChain
	}
	return &Checkpointer{
		fsys: fsys, dir: dir, maxChain: maxChain, seq: startSeq,
		met: newStoreMetrics(nil),
	}
}

func ckptName(seq uint64) string { return fmt.Sprintf("ckpt-%016x%s", seq, ckptSuffix) }

// isCkptName reports whether name has ckptName's form: a base name, so a
// manifest naming it cannot send recovery outside its directory.
func isCkptName(name string) bool {
	hex, ok := strings.CutPrefix(name, "ckpt-")
	if hex, ok = strings.CutSuffix(hex, ckptSuffix); !ok || len(hex) != 16 {
		return false
	}
	_, err := strconv.ParseUint(hex, 16, 64)
	return err == nil
}

// Save writes a checkpoint of the base graph and (when non-nil) the
// analyzed graph — deltas when a chain is open and has room, a fresh
// full checkpoint otherwise — publishes the updated manifest, and
// deletes files the manifest no longer references. On error the
// previous manifest (and chain) remain authoritative. meta.Analyzed is
// derived from the analyzed argument.
func (c *Checkpointer) Save(base, analyzed *graph.Graph, meta Meta) error {
	start := time.Now()
	if err := c.fsys.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	parentSeq := uint64(0)
	full := false
	if c.wBase == nil || len(c.chain) >= c.maxChain {
		c.wBase = graph.NewCkptWriter()
		c.wAnalyzed = graph.NewCkptWriter()
		c.chain = nil
		full = true
	}
	if len(c.chain) > 0 {
		parentSeq = c.seq
	}
	seq := c.seq + 1
	meta.Analyzed = analyzed != nil

	data := append([]byte(nil), ckptMagic[:]...)
	data = binary.AppendUvarint(data, seq)
	data = binary.AppendUvarint(data, parentSeq)
	data = binary.AppendUvarint(data, meta.Version)
	data = binary.AppendUvarint(data, meta.WalLSN)
	if meta.Analyzed {
		data = append(data, 1)
	} else {
		data = append(data, 0)
	}
	baseSec := c.wBase.AppendCheckpoint(nil, base)
	data = binary.AppendUvarint(data, uint64(len(baseSec)))
	data = append(data, baseSec...)
	if analyzed != nil {
		anSec := c.wAnalyzed.AppendCheckpoint(nil, analyzed)
		data = binary.AppendUvarint(data, uint64(len(anSec)))
		data = append(data, anSec...)
	}
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, ckptCRC))

	name := ckptName(seq)
	tmp := path.Join(c.dir, name+".tmp")
	if err := vfs.WriteFileSync(c.fsys, tmp, data, 0o644); err != nil {
		// The delta state already advanced; force a full restart next time.
		c.wBase = nil
		return fmt.Errorf("store: checkpoint write: %w", err)
	}
	if err := c.fsys.Rename(tmp, path.Join(c.dir, name)); err != nil {
		c.wBase = nil
		return fmt.Errorf("store: checkpoint publish: %w", err)
	}

	man := Manifest{
		Seq: seq, Chain: append(append([]string(nil), c.chain...), name),
		Version: meta.Version, WalLSN: meta.WalLSN, Analyzed: meta.Analyzed,
	}
	if err := c.writeManifest(man); err != nil {
		c.wBase = nil
		return err
	}
	c.seq = seq
	c.chain = man.Chain
	c.sweep()
	if full {
		c.met.saves.With("full").Inc()
		c.lastFull = len(data)
	} else {
		c.met.saves.With("delta").Inc()
		if c.lastFull > 0 {
			c.met.ratio.Set(float64(len(data)) / float64(c.lastFull))
		}
	}
	c.met.bytes.Observe(float64(len(data)))
	c.met.lastBytes.SetUint(uint64(len(data)))
	c.met.dur.ObserveSince(start)
	return nil
}

func (c *Checkpointer) writeManifest(man Manifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := path.Join(c.dir, manifestName+".tmp")
	if err := vfs.WriteFileSync(c.fsys, tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: manifest write: %w", err)
	}
	if err := c.fsys.Rename(tmp, path.Join(c.dir, manifestName)); err != nil {
		return fmt.Errorf("store: manifest publish: %w", err)
	}
	return nil
}

// sweep deletes checkpoint files and temporaries the manifest no longer
// references. Failures are ignored: orphans are retried by the next
// save and harm nothing in the meantime.
func (c *Checkpointer) sweep() {
	names, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(c.chain))
	for _, n := range c.chain {
		live[n] = true
	}
	for _, n := range names {
		stale := strings.HasSuffix(n, ".tmp") ||
			(strings.HasSuffix(n, ckptSuffix) && strings.HasPrefix(n, "ckpt-") && !live[n])
		if stale {
			_ = c.fsys.Remove(path.Join(c.dir, n))
		}
	}
}

// LoadLatest reads the manifest and folds the checkpoint chain into the
// graph it encodes. It returns nil (no error) when the directory holds
// no manifest — a fresh deployment.
func LoadLatest(fsys vfs.FS, dir string) (*Recovered, error) {
	man, err := LoadManifest(fsys, dir)
	if err != nil || man == nil {
		return nil, err
	}
	rBase := graph.NewCkptReader()
	rAnalyzed := graph.NewCkptReader()
	var g, an *graph.Graph
	var prevSeq uint64
	var fileMeta Meta
	for i, name := range man.Chain {
		raw, err := vfs.ReadFile(fsys, path.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: chain file %s: %w", name, err)
		}
		baseSec, anSec, seq, parentSeq, meta, err := parseCkptFile(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 && parentSeq != 0 {
			return nil, fmt.Errorf("%w: chain starts with delta %s", ErrCkptCorrupt, name)
		}
		if i > 0 && parentSeq != prevSeq {
			return nil, fmt.Errorf("%w: %s parent %d, want %d", ErrCkptCorrupt, name, parentSeq, prevSeq)
		}
		if g, err = rBase.Apply(baseSec); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if anSec != nil {
			if an, err = rAnalyzed.Apply(anSec); err != nil {
				return nil, fmt.Errorf("%s (analyzed): %w", name, err)
			}
		}
		prevSeq = seq
		fileMeta = meta
	}
	if prevSeq != man.Seq || fileMeta.Version != man.Version ||
		fileMeta.WalLSN != man.WalLSN || fileMeta.Analyzed != man.Analyzed {
		return nil, fmt.Errorf("%w: manifest/chain metadata mismatch", ErrCkptCorrupt)
	}
	if !man.Analyzed {
		an = nil
	} else if an == nil {
		return nil, fmt.Errorf("%w: analyzed flagged but no analyzed section in chain", ErrCkptCorrupt)
	}
	return &Recovered{
		Graph:    g,
		Analyzed: an,
		Meta:     Meta{Version: man.Version, WalLSN: man.WalLSN, Analyzed: man.Analyzed},
		Seq:      man.Seq,
	}, nil
}

func parseCkptFile(raw []byte) (baseSec, anSec []byte, seq, parentSeq uint64, meta Meta, err error) {
	fail := func(err error) ([]byte, []byte, uint64, uint64, Meta, error) {
		return nil, nil, 0, 0, Meta{}, err
	}
	if len(raw) < len(ckptMagic)+4 || [8]byte(raw[:8]) != ckptMagic {
		return fail(fmt.Errorf("%w: bad magic", ErrCkptCorrupt))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, ckptCRC) != binary.LittleEndian.Uint32(trailer) {
		return fail(fmt.Errorf("%w: crc mismatch", ErrCkptCorrupt))
	}
	off := len(ckptMagic)
	read := func() (uint64, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated header", ErrCkptCorrupt)
		}
		off += n
		return v, nil
	}
	if seq, err = read(); err != nil {
		return fail(err)
	}
	if parentSeq, err = read(); err != nil {
		return fail(err)
	}
	if meta.Version, err = read(); err != nil {
		return fail(err)
	}
	if meta.WalLSN, err = read(); err != nil {
		return fail(err)
	}
	if off >= len(body) {
		return fail(fmt.Errorf("%w: truncated header", ErrCkptCorrupt))
	}
	meta.Analyzed = body[off] != 0
	off++
	section := func() ([]byte, error) {
		l, err := read()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: section overruns file", ErrCkptCorrupt)
		}
		s := body[off : off+int(l)]
		off += int(l)
		return s, nil
	}
	if baseSec, err = section(); err != nil {
		return fail(err)
	}
	if meta.Analyzed {
		if anSec, err = section(); err != nil {
			return fail(err)
		}
		if anSec == nil {
			anSec = []byte{}
		}
	}
	if off != len(body) {
		return fail(fmt.Errorf("%w: trailing bytes after sections", ErrCkptCorrupt))
	}
	return baseSec, anSec, seq, parentSeq, meta, nil
}

// CkptFiles lists the checkpoint-owned files currently in dir (test and
// tooling helper).
func CkptFiles(fsys vfs.FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if vfs.IsNotExist(err) || errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, n := range names {
		if n == manifestName || strings.HasPrefix(n, "ckpt-") {
			out = append(out, n)
		}
	}
	return out, nil
}
