package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/vfs"
)

// bigGraph builds an append-heavy fixture: many users tagging many
// items, the paper's collaborative-tagging shape.
func bigGraph(t *testing.T, users, items int) *graph.Graph {
	t.Helper()
	g := graph.New()
	ids := graph.IDSourceFor(g)
	for i := 0; i < users; i++ {
		n := graph.NewNode(ids.NextNode(), "user")
		n.Attrs.Add("name", fmt.Sprintf("user-%d", i))
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < items; i++ {
		n := graph.NewNode(ids.NextNode(), "item", "city")
		n.Attrs.Add("name", fmt.Sprintf("city-%d", i))
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		for k := 0; k < 4; k++ {
			l := graph.NewLink(ids.NextLink(),
				graph.NodeID(u+1), graph.NodeID(users+1+(u*7+k*13)%items), "act", "tag")
			l.Attrs.Add("tags", fmt.Sprintf("tag-%d", (u+k)%17))
			if err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func ckptSize(t *testing.T, fsys *vfs.FaultFS, dir string, name string) int64 {
	t.Helper()
	sz, err := fsys.Size(dir + "/" + name)
	if err != nil {
		t.Fatalf("size %s: %v", name, err)
	}
	return sz
}

// TestDeltaCheckpointsMeasurablySmaller is the acceptance check: on an
// append-heavy stream, a delta checkpoint of a large graph after a
// small batch must be a small fraction of the full checkpoint's size.
func TestDeltaCheckpointsMeasurablySmaller(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 200, 100)
	c := NewCheckpointer(fsys, "ck", 16, 0)
	if err := c.Save(g, Meta{Version: 1, WalLSN: 10}); err != nil {
		t.Fatal(err)
	}
	fullSize := ckptSize(t, fsys, "ck", ckptName(1))

	ids := graph.IDSourceFor(g)
	var deltaTotal int64
	const steps = 5
	for s := 0; s < steps; s++ {
		// One small append batch: a new user tags a few existing items.
		uid := ids.NextNode()
		if err := g.AddNode(graph.NewNode(uid, "user")); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			l := graph.NewLink(ids.NextLink(), uid, graph.NodeID(201+(s*3+k)%100), "act", "tag")
			if err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Save(g, Meta{Version: uint64(s + 2), WalLSN: uint64(20 + s)}); err != nil {
			t.Fatal(err)
		}
		deltaTotal += ckptSize(t, fsys, "ck", ckptName(uint64(s+2)))
	}
	avgDelta := deltaTotal / steps
	if avgDelta*4 >= fullSize {
		t.Fatalf("delta checkpoints not measurably smaller: avg delta %dB vs full %dB", avgDelta, fullSize)
	}
	t.Logf("full checkpoint %dB, average delta %dB (%.1f%%)",
		fullSize, avgDelta, 100*float64(avgDelta)/float64(fullSize))

	// And the chain still recovers the exact graph.
	rec, err := LoadLatest(fsys, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Graph.Equal(g) {
		t.Fatal("recovered graph differs")
	}
	if rec.Meta.Version != steps+1 || rec.Meta.WalLSN != 20+steps-1 {
		t.Fatalf("recovered meta %+v", rec.Meta)
	}
}

func TestCheckpointChainResetAndRetention(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 20, 10)
	c := NewCheckpointer(fsys, "ck", 3, 0)
	ids := graph.IDSourceFor(g)
	for v := uint64(1); v <= 8; v++ {
		if err := g.AddNode(graph.NewNode(ids.NextNode(), "user")); err != nil {
			t.Fatal(err)
		}
		if err := c.Save(g, Meta{Version: v, WalLSN: v * 10}); err != nil {
			t.Fatal(err)
		}
		// Chains cap at 3: at most 3 checkpoint files + MANIFEST survive.
		files, err := CkptFiles(fsys, "ck")
		if err != nil {
			t.Fatal(err)
		}
		if len(files) > 4 {
			t.Fatalf("after save %d: retention failed, %d files: %v", v, len(files), files)
		}
		rec, err := LoadLatest(fsys, "ck")
		if err != nil {
			t.Fatalf("load after save %d: %v", v, err)
		}
		if !rec.Graph.Equal(g) || rec.Meta.Version != v {
			t.Fatalf("recovery after save %d diverged", v)
		}
	}
}

func TestCheckpointAfterRestartStartsFullChain(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 30, 15)
	c := NewCheckpointer(fsys, "ck", 8, 0)
	if err := c.Save(g, Meta{Version: 1, WalLSN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(g, Meta{Version: 2, WalLSN: 2}); err != nil {
		t.Fatal(err)
	}

	// "Restart": recover, then continue with a fresh checkpointer seeded
	// with the recovered sequence number.
	rec, err := LoadLatest(fsys, "ck")
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCheckpointer(fsys, "ck", 8, rec.Seq)
	if err := c2.Save(rec.Graph, Meta{Version: 3, WalLSN: 3}); err != nil {
		t.Fatal(err)
	}
	rec2, err := LoadLatest(fsys, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if len(chainOf(t, fsys)) != 1 {
		t.Fatalf("post-restart chain: %v", chainOf(t, fsys))
	}
	if !rec2.Graph.Equal(g) || rec2.Meta.Version != 3 {
		t.Fatalf("post-restart recovery: version %d", rec2.Meta.Version)
	}
}

func chainOf(t *testing.T, fsys vfs.FS) []string {
	t.Helper()
	rec, err := LoadLatest(fsys, "ck")
	if err != nil || rec == nil {
		t.Fatalf("load: %v", err)
	}
	// Re-read the raw manifest for its chain.
	data, err := vfs.ReadFile(fsys, "ck/MANIFEST")
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	return man.Chain
}

func TestCheckpointCrashBetweenFileAndManifest(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 20, 10)
	c := NewCheckpointer(fsys, "ck", 8, 0)
	if err := c.Save(g, Meta{Version: 1, WalLSN: 5}); err != nil {
		t.Fatal(err)
	}
	before := g.ShallowClone()
	ids := graph.IDSourceFor(g)
	if err := g.AddNode(graph.NewNode(ids.NextNode(), "user")); err != nil {
		t.Fatal(err)
	}
	// Enumerate every crash point inside the second save: whatever the
	// point, recovery must yield either the old or the new checkpoint —
	// never an error, never a hybrid.
	probe := NewCheckpointer(fsys, "ck", 8, 1)
	opsBefore := fsys.Ops()
	if err := probe.Save(g, Meta{Version: 2, WalLSN: 9}); err != nil {
		t.Fatal(err)
	}
	opsDuring := fsys.Ops() - opsBefore
	for cp := int64(0); cp <= opsDuring; cp++ {
		fs2 := vfs.NewFaultFS(vfs.DropUnsynced)
		c2 := NewCheckpointer(fs2, "ck", 8, 0)
		if err := c2.Save(before, Meta{Version: 1, WalLSN: 5}); err != nil {
			t.Fatal(err)
		}
		c3 := NewCheckpointer(fs2, "ck", 8, 1)
		fs2.SetCrashAtOp(fs2.Ops() + cp)
		err := c3.Save(g, Meta{Version: 2, WalLSN: 9})
		crashed := fs2.Crashed()
		fs2.Recover()
		rec, lerr := LoadLatest(fs2, "ck")
		if lerr != nil {
			t.Fatalf("crash point %d: recovery error: %v", cp, lerr)
		}
		switch rec.Meta.Version {
		case 1:
			if !rec.Graph.Equal(before) {
				t.Fatalf("crash point %d: version 1 graph differs", cp)
			}
		case 2:
			if !rec.Graph.Equal(g) {
				t.Fatalf("crash point %d: version 2 graph differs", cp)
			}
		default:
			t.Fatalf("crash point %d: version %d", cp, rec.Meta.Version)
		}
		if err == nil && !crashed && rec.Meta.Version != 2 {
			t.Fatalf("crash point %d: save acked but old manifest served", cp)
		}
	}
}

// analyze stands in for the engine's Analyze: it adds a topic node and a
// link to it past g's high-water marks and returns the enriched graph
// with the id ranges it derived.
func analyze(t *testing.T, g *graph.Graph) (*graph.Graph, *graph.Derived) {
	t.Helper()
	an := g.ShallowClone()
	ids := graph.IDSourceFor(an)
	topic := graph.NewNode(ids.NextNode(), "topic")
	topic.Attrs.Add("name", "beaches")
	if err := an.AddNode(topic); err != nil {
		t.Fatal(err)
	}
	l := graph.NewLink(ids.NextLink(), 31, topic.ID, "belong")
	if err := an.AddLink(l); err != nil {
		t.Fatal(err)
	}
	return an, &graph.Derived{NodeLo: topic.ID, NodeHi: topic.ID, LinkLo: l.ID, LinkHi: l.ID}
}

// TestCheckpointCarriesAnalyzedGraph covers the analyzed format: one
// section for the enriched serving graph, full then delta, with the
// derived id ranges in the header; recovery returns both exactly.
func TestCheckpointCarriesAnalyzedGraph(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 30, 15)
	c := NewCheckpointer(fsys, "ck", 8, 0)

	// Not yet analyzed: no ranges.
	if err := c.Save(g, Meta{Version: 1, WalLSN: 1}); err != nil {
		t.Fatal(err)
	}
	rec, err := LoadLatest(fsys, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta.Derived != nil {
		t.Fatal("unanalyzed checkpoint reported derived ranges")
	}

	an, d := analyze(t, g)
	if err := c.Save(an, Meta{Version: 2, WalLSN: 2, Derived: d}); err != nil {
		t.Fatal(err)
	}
	// The serving graph then evolves past the derived ids, as a delta.
	an = an.ShallowClone()
	if err := an.AddNode(graph.NewNode(an.MaxNodeID()+1, "user")); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(an, Meta{Version: 3, WalLSN: 3, Derived: d}); err != nil {
		t.Fatal(err)
	}

	rec, err = LoadLatest(fsys, "ck")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Graph.Equal(an) || rec.Graph.MaxNodeID() != an.MaxNodeID() {
		t.Fatal("recovered analyzed graph differs")
	}
	if rec.Meta.Version != 3 || rec.Meta.Derived == nil || *rec.Meta.Derived != *d {
		t.Fatalf("recovered meta %+v, want derived %+v", rec.Meta, *d)
	}
	// The ranges recover the base: g plus the user added past them.
	base := rec.Graph.WithoutDerived(*rec.Meta.Derived)
	if base.HasNode(d.NodeLo) || base.HasLink(d.LinkLo) || base.NumNodes() != g.NumNodes()+1 ||
		base.MaxNodeID() != an.MaxNodeID() || base.MaxLinkID() != g.MaxLinkID() {
		t.Fatal("derived ranges do not recover the base graph")
	}
}

// writeCkpt frames a hand-built checkpoint file: header bytes (from the
// magic on), one graph section, and the CRC trailer.
func writeCkpt(t *testing.T, fsys *vfs.FaultFS, name string, hdr, sec []byte) {
	t.Helper()
	data := binary.AppendUvarint(bytes.Clone(hdr), uint64(len(sec)))
	data = append(data, sec...)
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, ckptCRC))
	if err := vfs.WriteFileSync(fsys, "ck/"+name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadLatestRejectsHostileHeaders feeds recovery checkpoint files
// whose CRC is valid but whose header lies about the derived ranges or
// predates the one-graph format; each must fail closed.
func TestLoadLatestRejectsHostileHeaders(t *testing.T) {
	g := bigGraph(t, 30, 15)
	an, d := analyze(t, g)
	sec := graph.NewCkptWriter().AppendCheckpoint(nil, an)
	maxN, maxL := an.MaxNodeID(), an.MaxLinkID()
	if maxN > 127 || maxL > 127 {
		t.Fatal("fixture ranges no longer encode in one byte each")
	}
	ranges := func(nlo, nhi graph.NodeID, llo, lhi graph.LinkID) *graph.Derived {
		return &graph.Derived{NodeLo: nlo, NodeHi: nhi, LinkLo: llo, LinkHi: lhi}
	}
	for _, tc := range []struct {
		name     string
		analyzed bool // the manifest's flag
		hdr      func() []byte
	}{
		{"node range low above high", true, func() []byte {
			return appendHeader(nil, 1, 0, Meta{Version: 1, Derived: ranges(d.NodeHi+1, d.NodeHi, d.LinkLo, d.LinkHi)})
		}},
		{"link range low above high", true, func() []byte {
			return appendHeader(nil, 1, 0, Meta{Version: 1, Derived: ranges(d.NodeLo, d.NodeHi, d.LinkHi, d.LinkHi-1)})
		}},
		{"node range past the graph", true, func() []byte {
			return appendHeader(nil, 1, 0, Meta{Version: 1, Derived: ranges(d.NodeLo, maxN+1, d.LinkLo, d.LinkHi)})
		}},
		{"link range past the graph", true, func() []byte {
			return appendHeader(nil, 1, 0, Meta{Version: 1, Derived: ranges(d.NodeLo, d.NodeHi, d.LinkLo, maxL+1)})
		}},
		{"ranges on an unanalyzed file", false, func() []byte {
			hdr := appendHeader(nil, 1, 0, Meta{Version: 1, Derived: d})
			hdr[len(hdr)-5] = 0 // the flag, before four one-byte range ends
			return hdr
		}},
		{"stored SSCKPT01 file", false, func() []byte {
			hdr := appendHeader(nil, 1, 0, Meta{Version: 1})
			hdr[7] = '1'
			return hdr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := vfs.NewFaultFS(vfs.DropUnsynced)
			if err := fsys.MkdirAll("ck", 0o755); err != nil {
				t.Fatal(err)
			}
			writeCkpt(t, fsys, ckptName(1), tc.hdr(), sec)
			man, err := json.Marshal(Manifest{Seq: 1, Chain: []string{ckptName(1)}, Version: 1, Analyzed: tc.analyzed})
			if err != nil {
				t.Fatal(err)
			}
			if err := vfs.WriteFileSync(fsys, "ck/"+manifestName, man, 0o644); err != nil {
				t.Fatal(err)
			}
			if rec, err := LoadLatest(fsys, "ck"); !errors.Is(err, ErrCkptCorrupt) {
				t.Fatalf("LoadLatest = %+v, %v; want ErrCkptCorrupt", rec, err)
			}
		})
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	rec, err := LoadLatest(fsys, "nothing-here")
	if err != nil || rec != nil {
		t.Fatalf("empty dir: rec=%v err=%v", rec, err)
	}
}

func TestLoadLatestRejectsTamperedFile(t *testing.T) {
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	g := bigGraph(t, 10, 5)
	c := NewCheckpointer(fsys, "ck", 8, 0)
	if err := c.Save(g, Meta{Version: 1, WalLSN: 1}); err != nil {
		t.Fatal(err)
	}
	name := "ck/" + ckptName(1)
	raw := fsys.Bytes(name)
	raw[len(raw)/2] ^= 0x01
	if err := fsys.Truncate(name, 0); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := LoadLatest(fsys, "ck"); !errors.Is(err, ErrCkptCorrupt) {
		t.Fatalf("tampered file: %v", err)
	}
}
