package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"path"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/vfs"
)

// FuzzCkptFile feeds hostile checkpoint-file bytes and MANIFEST JSON to
// the recovery readers: parseCkptFile on each file, then LoadManifest and
// LoadLatest over a directory holding the manifest and two checkpoint
// files. With fixCRC the files' trailers are recomputed, so the fuzzer
// reaches past the checksum into the header and sections. Nothing may
// panic or size an allocation from a length it has not checked; whatever
// is accepted must be self-consistent, and an accepted manifest names
// only checkpoint files inside its directory.
func FuzzCkptFile(f *testing.F) {
	b := graph.NewBuilder()
	u := b.Node([]string{graph.TypeUser}, "name", "ann")
	b.Link(u, b.Node([]string{graph.TypeItem}, "rating", "0.5"), []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	g := b.Graph()
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	c := NewCheckpointer(fsys, "d", 4, 0)
	if err := c.Save(g, nil, Meta{Version: 1, WalLSN: 3}); err != nil {
		f.Fatal(err)
	}
	b.Node([]string{graph.TypeUser})
	if err := c.Save(g, g, Meta{Version: 2, WalLSN: 5}); err != nil {
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

	f.Fuzz(func(t *testing.T, manifest, file1, file2 []byte, fixCRC bool) {
		files := [][]byte{file1, file2}
		for i, raw := range files {
			if fixCRC && len(raw) >= 4 {
				raw = bytes.Clone(raw) // the fuzzer's inputs are read-only
				body := raw[:len(raw)-4]
				binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.Checksum(body, ckptCRC))
				files[i] = raw
			}
			base, an, _, _, meta, err := parseCkptFile(raw)
			if err != nil {
				continue
			}
			if (an != nil) != meta.Analyzed || len(base)+len(an) > len(raw) {
				t.Fatalf("parseCkptFile: base %d B, analyzed %v (%d B), flag %v, file %d B",
					len(base), an != nil, len(an), meta.Analyzed, len(raw))
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
		if rec.Graph == nil || (rec.Analyzed != nil) != rec.Meta.Analyzed || rec.Seq != m.Seq ||
			rec.Meta.Version != m.Version || rec.Meta.WalLSN != m.WalLSN {
			t.Fatalf("LoadLatest: %+v for manifest %+v", rec, m)
		}
	})
}
