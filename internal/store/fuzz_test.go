package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/vfs"
)

// FuzzCkptFile feeds hostile checkpoint-file bytes and MANIFEST JSON to
// the recovery readers: parseCkptFile on each file, then LoadManifest and
// LoadLatest over a directory holding the manifest and two checkpoint
// files. With fixCRC the files' trailers are recomputed, so the fuzzer
// reaches past the checksum into the header and sections. Nothing may
// panic or size an allocation from a length it has not checked; whatever
// is accepted must be self-consistent — a header re-framed from what it
// decoded to parses back the same, and accepted derived ranges are
// ordered and under the graph's high-water marks — and an accepted
// manifest names only checkpoint files inside its directory.
func FuzzCkptFile(f *testing.F) {
	b := graph.NewBuilder()
	u := b.Node([]string{graph.TypeUser}, "name", "ann")
	b.Link(u, b.Node([]string{graph.TypeItem}, "rating", "0.5"), []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	g := b.Graph()
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	c := NewCheckpointer(fsys, "d", 4, 0, obs.NewRegistry())
	if err := c.Save(g, Meta{Version: 1, WalLSN: 3}); err != nil {
		f.Fatal(err)
	}
	// "Analyze": a topic and a belong link past the marks, saved as an
	// analyzed delta and, by a fresh checkpointer, as an analyzed full file.
	topic := b.Node([]string{graph.TypeTopic}, "name", "topic-0")
	bl := b.Link(u, topic, []string{graph.TypeBelong})
	d := &graph.Derived{NodeLo: topic, NodeHi: topic, LinkLo: bl, LinkHi: bl}
	if err := c.Save(g, Meta{Version: 2, WalLSN: 5, Derived: d}); err != nil {
		f.Fatal(err)
	}
	if err := NewCheckpointer(fsys, "a", 4, 0, obs.NewRegistry()).Save(g, Meta{Version: 2, WalLSN: 5, Derived: d}); err != nil {
		f.Fatal(err)
	}
	full, delta := fsys.Bytes("d/"+ckptName(1)), fsys.Bytes("d/"+ckptName(2))
	man := fsys.Bytes("d/" + manifestName)
	f.Add(man, full, delta, false)
	f.Add(man, full, delta[:len(delta)-3], true)
	f.Add(man, full[:len(full)/2], delta, true)
	f.Add([]byte(`{"seq":1,"chain":["ckpt-0000000000000001.ck"],"version":1,"wal_lsn":3}`), full, []byte{}, false)
	f.Add([]byte(`{"seq":1,"chain":["../ckpt-0000000000000001.ck"]}`), full, []byte{}, false)
	f.Add([]byte(`{"chain":[]}`), []byte{}, []byte{}, false)
	f.Add([]byte(`null`), full, delta, false)
	f.Add([]byte(`{"seq":2,"chain":["ckpt-0000000000000002.ck","ckpt-0000000000000002.ck"]}`), delta, delta, true)
	f.Add(fsys.Bytes("a/"+manifestName), fsys.Bytes("a/"+ckptName(1)), []byte{}, false)
	// A derived link range ending at the largest id there is, which the
	// graph's mark reaches: accepted, and the base must still come back
	// at graph speed.
	top := graph.NewLink(math.MaxInt64, u, topic, graph.TypeBelong)
	if err := g.AddLink(top); err != nil {
		f.Fatal(err)
	}
	wide := &graph.Derived{NodeLo: topic, NodeHi: topic, LinkLo: bl, LinkHi: top.ID}
	if err := NewCheckpointer(fsys, "h", 4, 0, obs.NewRegistry()).Save(g, Meta{Version: 2, WalLSN: 5, Derived: wide}); err != nil {
		f.Fatal(err)
	}
	f.Add(fsys.Bytes("h/"+manifestName), fsys.Bytes("h/"+ckptName(1)), []byte{}, false)

	f.Fuzz(func(t *testing.T, manifest, file1, file2 []byte, fixCRC bool) {
		files := [][]byte{file1, file2}
		for i, raw := range files {
			if fixCRC && len(raw) >= 4 {
				raw = bytes.Clone(raw) // the fuzzer's inputs are read-only
				body := raw[:len(raw)-4]
				binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(body, ckptCRC))
				files[i] = raw
			}
			sec, seq, parentSeq, meta, err := parseCkptFile(raw)
			if err != nil {
				continue
			}
			if len(sec) > len(raw) {
				t.Fatalf("parseCkptFile: section %d B of a %d B file", len(sec), len(raw))
			}
			// The header round-trips: re-framed, it parses to the same
			// sequence numbers and meta, derived ranges included.
			hdr := appendHeader(nil, seq, parentSeq, meta)
			data := binary.AppendUvarint(hdr, uint64(len(sec)))
			data = append(data, sec...)
			data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, ckptCRC))
			sec2, seq2, parent2, meta2, err := parseCkptFile(data)
			if err != nil || !bytes.Equal(sec2, sec) || seq2 != seq || parent2 != parentSeq ||
				!reflect.DeepEqual(meta2, meta) {
				t.Fatalf("parseCkptFile: meta %+v (derived %v) did not round-trip: %+v, %v", meta, meta.Derived, meta2, err)
			}
		}

		fsys := vfs.NewFaultFS(vfs.DropUnsynced)
		if err := fsys.MkdirAll("d", 0o755); err != nil {
			t.Fatal(err)
		}
		put := func(name string, data []byte) {
			if err := vfs.WriteFileSync(fsys, path.Join("d", name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		put(manifestName, manifest)
		put(ckptName(1), files[0])
		put(ckptName(2), files[1])

		m, err := LoadManifest(fsys, "d")
		if err != nil {
			return
		}
		if m == nil || len(m.Chain) == 0 {
			t.Fatalf("LoadManifest accepted %q as %+v", manifest, m)
		}
		for _, name := range m.Chain {
			if !isCkptName(name) {
				t.Fatalf("LoadManifest accepted chain entry %q", name)
			}
		}
		rec, err := LoadLatest(fsys, "d")
		if err != nil {
			return
		}
		if rec.Graph == nil || (rec.Meta.Derived != nil) != m.Analyzed || rec.Seq != m.Seq ||
			rec.Meta.Version != m.Version || rec.Meta.WalLSN != m.WalLSN {
			t.Fatalf("LoadLatest: %+v for manifest %+v", rec, m)
		}
		if d := rec.Meta.Derived; d != nil && (d.NodeLo < 1 || d.NodeLo > d.NodeHi || d.NodeHi > rec.Graph.MaxNodeID() ||
			d.LinkLo < 1 || d.LinkLo > d.LinkHi || d.LinkHi > rec.Graph.MaxLinkID()) {
			t.Fatalf("LoadLatest accepted derived ranges %+v over marks %d/%d",
				*d, rec.Graph.MaxNodeID(), rec.Graph.MaxLinkID())
		}
		if d := rec.Meta.Derived; d != nil {
			if base := rec.Graph.WithoutDerived(*d); base.MaxLinkID() >= d.LinkLo && base.MaxLinkID() <= d.LinkHi {
				t.Fatalf("WithoutDerived(%+v) left the link mark at %d", *d, base.MaxLinkID())
			}
		}
	})
}

// TestCollisionSeedReachesDecoder: the committed FuzzCkptFile seed that
// guards the collision-count check must pass the file's framing — magic,
// CRC and header — or it no longer reaches the record decoder it was
// committed for. A format bump rewrites its magic and CRC trailer.
func TestCollisionSeedReachesDecoder(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzCkptFile/collision-count-of-record-length")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 3 {
		t.Fatalf("seed has %d lines", len(lines))
	}
	file, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := parseCkptFile([]byte(file)); err != nil {
		t.Fatalf("seed's first checkpoint file stops at the framing: %v", err)
	}
}
