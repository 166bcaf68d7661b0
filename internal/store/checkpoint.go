// Package store is the durable half of the Data Manager's storage role
// (Section 6, Figure 1): checkpoint files, the MANIFEST that binds them
// to internal/wal, and the Watcher followers poll it with. All file IO
// flows through vfs.FS (enforced by the vfsseam analyzer), so the
// fault-injection harness can crash it at every operation boundary.
package store

// Checkpoint files and the manifest that binds them to the WAL — the
// durable half of the engine's recovery pair (the other half is
// internal/wal). A checkpoint file carries one graph checkpoint section
// (full or delta — see graph.CkptWriter) for the engine's serving graph,
// framed with a magic, sequence metadata, the engine version and WAL
// position it captures, the analyzed flag with the id ranges the last
// Analyze derived, and a whole-file CRC. The MANIFEST names the current
// chain: one full checkpoint followed by the deltas on top of it, in
// order. Recovery reads the manifest, folds the chain through a
// graph.CkptReader, and replays the WAL from the recorded LSN.
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
	"socialscope/internal/obs"
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

// ckptMagic names the file format. SSCKPT03 stores integer-keyed tries on
// the id-ordered paths of persist.NewIntMap; an SSCKPT02 file, whose tries
// follow hashed paths, is refused by name rather than failing the trie
// path check as corrupt.
var ckptMagic = [8]byte{'S', 'S', 'C', 'K', 'P', 'T', '0', '3'}

// ErrCkptCorrupt is returned when checkpoint files or the manifest fail
// validation.
var ErrCkptCorrupt = errors.New("store: corrupt checkpoint")

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// Meta is the engine state a checkpoint captures beyond the graph itself:
// the version the serving layer keys its caches by, the last WAL LSN the
// checkpoint covers, and the id ranges the last Analyze derived (nil if
// the engine has not analyzed), without which the graph is the base a
// later Analyze re-derives from (graph.Graph.WithoutDerived).
type Meta struct {
	Version uint64
	WalLSN  uint64
	Derived *graph.Derived
}

// Manifest is the durable index of the current checkpoint chain.
type Manifest struct {
	Seq      uint64   `json:"seq"`
	Chain    []string `json:"chain"`
	Version  uint64   `json:"version"`
	WalLSN   uint64   `json:"wal_lsn"`
	Analyzed bool     `json:"analyzed"`
}

// Recovered is the result of loading the latest checkpoint chain: the
// engine's serving graph and the Meta it was saved with.
type Recovered struct {
	Graph *graph.Graph
	Meta  Meta
	Seq   uint64
}

// Checkpointer writes checkpoint files for one graph lineage. It is not
// safe for concurrent use; the engine serializes saves on its write
// path.
type Checkpointer struct {
	fsys      vfs.FS
	dir       string
	maxChain  int
	w         *graph.CkptWriter
	seq       uint64
	chain     []string
	met       *storeMetrics
	lastFull  int // bytes of the chain's full checkpoint, for the delta ratio
	lastDelta int // bytes of the last delta checkpoint
}

// NewCheckpointer returns a checkpointer writing into dir, numbering
// files after startSeq (the recovered manifest's Seq, or 0 on a fresh
// directory), recording into reg (obs.Default when nil). Its first Save
// writes a full checkpoint.
func NewCheckpointer(fsys vfs.FS, dir string, maxChain int, startSeq uint64, reg *obs.Registry) *Checkpointer {
	if maxChain < 1 {
		maxChain = DefaultMaxChain
	}
	return &Checkpointer{
		fsys: fsys, dir: dir, maxChain: maxChain, seq: startSeq,
		met: newStoreMetrics(reg),
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

// Save writes a checkpoint of g with meta — a delta when a chain is open
// and has room, a fresh full checkpoint otherwise — publishes the updated
// manifest, and deletes files the manifest no longer references. On
// error the previous manifest (and chain) remain authoritative.
func (c *Checkpointer) Save(g *graph.Graph, meta Meta) error {
	start := time.Now()
	if err := c.fsys.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	parentSeq := uint64(0)
	full := false
	if c.w == nil || len(c.chain) >= c.maxChain {
		c.w = graph.NewCkptWriter()
		c.chain = nil
		full = true
	}
	if len(c.chain) > 0 {
		parentSeq = c.seq
	}
	seq := c.seq + 1

	data := appendHeader(make([]byte, 0, c.sizeHint(g, full)), seq, parentSeq, meta)
	data = graph.AppendPrefixed(data, func(b []byte) []byte { return c.w.AppendCheckpoint(b, g) })
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, ckptCRC))

	name := ckptName(seq)
	tmp := path.Join(c.dir, name+".tmp")
	if err := vfs.WriteFileSync(c.fsys, tmp, data, 0o644); err != nil {
		// The delta state already advanced; force a full restart next time.
		c.w = nil
		return fmt.Errorf("store: checkpoint write: %w", err)
	}
	if err := c.fsys.Rename(tmp, path.Join(c.dir, name)); err != nil {
		c.w = nil
		return fmt.Errorf("store: checkpoint publish: %w", err)
	}

	man := Manifest{
		Seq: seq, Chain: append(append([]string(nil), c.chain...), name),
		Version: meta.Version, WalLSN: meta.WalLSN, Analyzed: meta.Derived != nil,
	}
	if err := c.writeManifest(man); err != nil {
		c.w = nil
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
		c.lastDelta = len(data)
		if c.lastFull > 0 {
			c.met.ratio.Set(float64(len(data)) / float64(c.lastFull))
		}
	}
	c.met.bytes.Observe(float64(len(data)))
	c.met.lastBytes.SetUint(uint64(len(data)))
	c.met.dur.ObserveSince(start)
	return nil
}

// sizeHint guesses the bytes of the next checkpoint file, so that Save
// encodes it into one buffer: the last file of its kind with room to
// grow, or, before the first full one, about what the ledger's corpus
// takes per node and per link. A short guess costs one growth.
func (c *Checkpointer) sizeHint(g *graph.Graph, full bool) int {
	last := c.lastDelta
	if full {
		last = c.lastFull
		if last == 0 {
			return bytesPerNode*g.NumNodes() + bytesPerLink*g.NumLinks() + 4096
		}
	}
	return last + last/4 + 4096
}

// bytesPerNode and bytesPerLink are a little over what a full checkpoint
// of the bench/ ledger's corpus spends per node and per link (55 and 31).
const (
	bytesPerNode = 64
	bytesPerLink = 32
)

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
// graph it encodes: every file's tries are decoded and checked, and the
// graph of the last one is built and validated. It returns nil (no error)
// when the directory holds no manifest — a fresh deployment.
func LoadLatest(fsys vfs.FS, dir string) (*Recovered, error) {
	man, err := LoadManifest(fsys, dir)
	if err != nil || man == nil {
		return nil, err
	}
	r := graph.NewCkptReader()
	var g *graph.Graph
	var prevSeq uint64
	var fileMeta Meta
	for i, name := range man.Chain {
		raw, err := vfs.ReadFile(fsys, path.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: chain file %s: %w", name, err)
		}
		sec, seq, parentSeq, meta, err := parseCkptFile(raw)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if i == 0 && parentSeq != 0 {
			return nil, fmt.Errorf("%w: chain starts with delta %s", ErrCkptCorrupt, name)
		}
		if i > 0 && parentSeq != prevSeq {
			return nil, fmt.Errorf("%w: %s parent %d, want %d", ErrCkptCorrupt, name, parentSeq, prevSeq)
		}
		if i < len(man.Chain)-1 {
			err = r.Fold(sec)
		} else {
			g, err = r.Apply(sec)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		prevSeq = seq
		fileMeta = meta
	}
	if prevSeq != man.Seq || fileMeta.Version != man.Version ||
		fileMeta.WalLSN != man.WalLSN || (fileMeta.Derived != nil) != man.Analyzed {
		return nil, fmt.Errorf("%w: manifest/chain metadata mismatch", ErrCkptCorrupt)
	}
	if d := fileMeta.Derived; d != nil && (d.NodeHi > g.MaxNodeID() || d.LinkHi > g.MaxLinkID()) {
		return nil, fmt.Errorf("%w: derived ranges %+v past the graph's high-water marks", ErrCkptCorrupt, *d)
	}
	return &Recovered{Graph: g, Meta: fileMeta, Seq: man.Seq}, nil
}

// appendHeader appends a checkpoint file's header: the magic, the
// sequence numbers, the engine version and WAL position, and the analyzed
// flag, followed when set by the derived node and link ranges.
func appendHeader(dst []byte, seq, parentSeq uint64, meta Meta) []byte {
	vs := []uint64{seq, parentSeq, meta.Version, meta.WalLSN, 0} // the flag's one byte is its uvarint
	if d := meta.Derived; d != nil {
		vs = append(vs[:4], 1, uint64(d.NodeLo), uint64(d.NodeHi), uint64(d.LinkLo), uint64(d.LinkHi))
	}
	dst = append(dst, ckptMagic[:]...)
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func parseCkptFile(raw []byte) (sec []byte, seq, parentSeq uint64, meta Meta, err error) {
	fail := func(err error) ([]byte, uint64, uint64, Meta, error) {
		return nil, 0, 0, Meta{}, err
	}
	if len(raw) < len(ckptMagic)+4 || [8]byte(raw[:8]) != ckptMagic {
		if len(raw) >= len(ckptMagic) && string(raw[:6]) == "SSCKPT" {
			return fail(fmt.Errorf("%w: format %q, want %q", ErrCkptCorrupt, raw[:8], ckptMagic[:]))
		}
		return fail(fmt.Errorf("%w: bad magic", ErrCkptCorrupt))
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, ckptCRC) != binary.LittleEndian.Uint32(trailer) {
		return fail(fmt.Errorf("%w: crc mismatch", ErrCkptCorrupt))
	}
	off := len(ckptMagic)
	read := func(vs ...*uint64) error {
		for _, v := range vs {
			x, n := binary.Uvarint(body[off:])
			if n <= 0 {
				return fmt.Errorf("%w: truncated header", ErrCkptCorrupt)
			}
			*v, off = x, off+n
		}
		return nil
	}
	if err = read(&seq, &parentSeq, &meta.Version, &meta.WalLSN); err != nil {
		return fail(err)
	}
	if off >= len(body) || body[off] > 1 {
		return fail(fmt.Errorf("%w: bad analyzed flag", ErrCkptCorrupt))
	}
	off++
	if body[off-1] == 1 {
		var r [4]uint64 // node lo, node hi, link lo, link hi
		if err = read(&r[0], &r[1], &r[2], &r[3]); err != nil {
			return fail(err)
		}
		d := graph.Derived{NodeLo: graph.NodeID(r[0]), NodeHi: graph.NodeID(r[1]),
			LinkLo: graph.LinkID(r[2]), LinkHi: graph.LinkID(r[3])}
		if d.NodeLo < 1 || d.NodeLo > d.NodeHi || d.LinkLo < 1 || d.LinkLo > d.LinkHi {
			return fail(fmt.Errorf("%w: derived ranges %v out of order", ErrCkptCorrupt, r))
		}
		meta.Derived = &d
	}
	var l uint64
	if err = read(&l); err != nil {
		return fail(err)
	}
	if l != uint64(len(body)-off) {
		return fail(fmt.Errorf("%w: section length %d, %d bytes follow the header", ErrCkptCorrupt, l, len(body)-off))
	}
	return body[off:], seq, parentSeq, meta, nil
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
