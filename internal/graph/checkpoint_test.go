package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"socialscope/internal/persist"
)

func buildCheckpointFixture(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 1; i <= 40; i++ {
		n := NewNode(NodeID(i), "user")
		n.Attrs.Add("name", "u"+string(rune('a'+i%26)))
		if i%3 == 0 {
			n.SetScore(float64(i) / 7)
		}
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	lid := LinkID(0)
	for i := 1; i <= 40; i++ {
		for j := i + 1; j <= 40; j += 7 {
			lid++
			l := NewLink(lid, NodeID(i), NodeID(j), "act", "tag")
			l.AddAttr("tags", "t"+string(rune('a'+int(lid)%26)))
			if err := g.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func assertGraphIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("recovered graph invalid: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("graphs differ: %v vs %v", want, got)
	}
	if got.MaxNodeID() != want.MaxNodeID() || got.MaxLinkID() != want.MaxLinkID() {
		t.Fatalf("high-water marks: got %d/%d, want %d/%d",
			got.MaxNodeID(), got.MaxLinkID(), want.MaxNodeID(), want.MaxLinkID())
	}
	// Adjacency must be rebuilt byte-for-byte: same lists, same order.
	for _, id := range want.NodeIDs() {
		wo, go_ := want.Out(id), got.Out(id)
		if len(wo) != len(go_) {
			t.Fatalf("node %d out-degree: %d vs %d", id, len(go_), len(wo))
		}
		for i := range wo {
			if wo[i].ID != go_[i].ID {
				t.Fatalf("node %d out[%d]: %d vs %d", id, i, go_[i].ID, wo[i].ID)
			}
		}
		wi, gi := want.In(id), got.In(id)
		if len(wi) != len(gi) {
			t.Fatalf("node %d in-degree: %d vs %d", id, len(gi), len(wi))
		}
		for i := range wi {
			if wi[i].ID != gi[i].ID {
				t.Fatalf("node %d in[%d]: %d vs %d", id, i, gi[i].ID, wi[i].ID)
			}
		}
	}
}

func TestGraphCheckpointRoundTrip(t *testing.T) {
	g := buildCheckpointFixture(t)
	data := NewCkptWriter().AppendCheckpoint(nil, g)
	got, err := NewCkptReader().Apply(data)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphIdentical(t, g, got)
}

func TestGraphCheckpointDeltaChainSmaller(t *testing.T) {
	g := buildCheckpointFixture(t)
	w := NewCkptWriter()
	r := NewCkptReader()
	full := w.AppendCheckpoint(nil, g)
	if _, err := r.Apply(full); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 6; step++ {
		// A small append-heavy batch against a graph of hundreds of
		// elements: the delta must be a fraction of the full encoding.
		for i := 0; i < 3; i++ {
			id := g.MaxNodeID() + 1
			if err := g.AddNode(NewNode(id, "user")); err != nil {
				t.Fatal(err)
			}
			lid := g.MaxLinkID() + 1
			tgt := NodeID(1 + rng.Intn(int(id)-1))
			if err := g.AddLink(NewLink(lid, id, tgt, "act", "tag")); err != nil {
				t.Fatal(err)
			}
		}
		delta := w.AppendCheckpoint(nil, g)
		if len(delta) >= len(full)/2 {
			t.Fatalf("step %d: delta %dB vs full %dB — sharing not exploited", step, len(delta), len(full))
		}
		got, err := r.Apply(delta)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		assertGraphIdentical(t, g, got)
	}
}

func TestGraphCheckpointEmptyGraph(t *testing.T) {
	g := New()
	data := NewCkptWriter().AppendCheckpoint(nil, g)
	got, err := NewCkptReader().Apply(data)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphIdentical(t, g, got)
}

func TestGraphCheckpointRejectsGarbage(t *testing.T) {
	g := buildCheckpointFixture(t)
	data := NewCkptWriter().AppendCheckpoint(nil, g)
	for i := 0; i < len(data); i += 3 {
		if _, err := NewCkptReader().Apply(data[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		// Mutations must decode cleanly or error — never panic; the
		// post-decode Validate catches structurally-plausible damage.
		_, _ = NewCkptReader().Apply(mut)
	}
}

func TestMutationBatchCodecRoundTrip(t *testing.T) {
	g := buildCheckpointFixture(t)
	log := RecordInto(g)
	if err := g.AddNode(NewNode(100, "user", "traveler")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(NewLink(9000, 100, 1, "act", "tag")); err != nil {
		t.Fatal(err)
	}
	merged := NewLink(9000, 100, 1, "act")
	merged.AddAttr("tags", "beach")
	merged.SetScore(0.25)
	if err := g.PutLink(merged); err != nil { // emits MutPutLink with Prev
		t.Fatal(err)
	}
	n100 := NewNode(100, "reviewer")
	g.PutNode(n100) // emits MutPutNode
	g.RemoveNode(2) // emits cascade: remove-links then remove-node

	muts := log.Drain()
	if len(muts) < 5 {
		t.Fatalf("fixture emitted only %d mutations", len(muts))
	}
	data := AppendMutations(nil, muts)
	got, err := DecodeMutations(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(muts) {
		t.Fatalf("decoded %d mutations, want %d", len(got), len(muts))
	}
	for i := range muts {
		w, g2 := muts[i], got[i]
		if w.Kind != g2.Kind {
			t.Fatalf("mutation %d kind: %v vs %v", i, g2.Kind, w.Kind)
		}
		if (w.Node == nil) != (g2.Node == nil) || (w.Node != nil && !w.Node.Equal(g2.Node)) {
			t.Fatalf("mutation %d node differs", i)
		}
		if (w.Link == nil) != (g2.Link == nil) || (w.Link != nil && !w.Link.Equal(g2.Link)) {
			t.Fatalf("mutation %d link differs", i)
		}
		if (w.Prev == nil) != (g2.Prev == nil) || (w.Prev != nil && !w.Prev.Equal(g2.Prev)) {
			t.Fatalf("mutation %d prev differs", i)
		}
	}
	// Replaying the decoded batch on a shallow clone of the pre-batch
	// graph must land on the same graph: the codec is replay-faithful.
	// (Rebuild the fixture; the original g already absorbed the batch.)
	replayed := buildCheckpointFixture(t)
	if err := replayed.ApplyAll(got); err != nil {
		t.Fatal(err)
	}
	if !replayed.Equal(g) {
		t.Fatal("decoded batch does not replay to the same graph")
	}

	// Corrupt inputs error out, never panic.
	for i := 0; i < len(data); i++ {
		if _, err := DecodeMutations(data[:i]); err == nil && i < len(data) {
			t.Fatalf("truncation at %d accepted", i)
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		_, _ = DecodeMutations(mut)
	}
}

func TestMutationCodecEmptyBatch(t *testing.T) {
	data := AppendMutations(nil, nil)
	got, err := DecodeMutations(data)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %v len=%d", err, len(got))
	}
}

// TestMaxIDsSurviveRemoveThenRecover is the retracted-id regression
// test: after removing the highest-id elements, both the JSON and the
// checkpoint codec must carry the high-water marks, so a recovered
// engine allocating fresh ids (IDSourceFor) never resurrects a
// retracted id.
func TestMaxIDsSurviveRemoveThenRecover(t *testing.T) {
	g := New()
	for i := 1; i <= 10; i++ {
		if err := g.AddNode(NewNode(NodeID(i), "user")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		if err := g.AddLink(NewLink(LinkID(i), NodeID(i), NodeID(i+1), "act")); err != nil {
			t.Fatal(err)
		}
	}
	// Retract the highest node and link ids.
	g.RemoveNode(10)
	g.RemoveLink(5)
	if g.MaxNodeID() != 10 || g.MaxLinkID() != 5 {
		t.Fatalf("high-water marks retreated: %d/%d", g.MaxNodeID(), g.MaxLinkID())
	}

	check := func(name string, rec *Graph) {
		t.Helper()
		if rec.MaxNodeID() != 10 || rec.MaxLinkID() != 5 {
			t.Fatalf("%s: recovered marks %d/%d, want 10/5", name, rec.MaxNodeID(), rec.MaxLinkID())
		}
		// Fresh ids allocated after recovery must not alias retracted ones.
		ids := IDSourceFor(rec)
		if nid := ids.NextNode(); nid != 11 {
			t.Fatalf("%s: next node id %d resurrects retracted 10", name, nid)
		}
		if lid := ids.NextLink(); lid != 6 {
			t.Fatalf("%s: next link id %d resurrects retracted 5", name, lid)
		}
	}

	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	viaJSON, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("json", viaJSON)

	viaCkpt, err := NewCkptReader().Apply(NewCkptWriter().AppendCheckpoint(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint", viaCkpt)

	// And across a full remove-then-recover-then-mutate cycle: a delta
	// checkpoint after re-adding keeps the advanced marks.
	w := NewCkptWriter()
	r := NewCkptReader()
	if _, err := r.Apply(w.AppendCheckpoint(nil, g)); err != nil {
		t.Fatal(err)
	}
	ids := IDSourceFor(g)
	nid, lid := ids.NextNode(), ids.NextLink()
	if err := g.AddNode(NewNode(nid, "user")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(NewLink(lid, nid, 1, "act")); err != nil {
		t.Fatal(err)
	}
	rec, err := r.Apply(w.AppendCheckpoint(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxNodeID() != nid || rec.MaxLinkID() != lid {
		t.Fatalf("delta recovery marks %d/%d, want %d/%d", rec.MaxNodeID(), rec.MaxLinkID(), nid, lid)
	}
}

// TestCkptReaderRejectsLyingCounts: a checkpoint section whose node or
// link count disagrees with its tries is rejected — including counts no
// allocation could hold, which the reader once sized a slice by.
func TestCkptReaderRejectsLyingCounts(t *testing.T) {
	g := buildCheckpointFixture(t)
	section := func(nodeCount, linkCount uint64) []byte {
		nodeDelta, nodeRoot := persist.NewCkptState[NodeID, *Node]().EncodeDelta(nil, g.nodes,
			func(b []byte, id NodeID) []byte { return binary.AppendUvarint(b, uint64(id)) }, AppendNodeBin)
		linkDelta, linkRoot := persist.NewCkptState[LinkID, *Link]().EncodeDelta(nil, g.links,
			func(b []byte, id LinkID) []byte { return binary.AppendUvarint(b, uint64(id)) }, AppendLinkBin)
		var b []byte
		for _, part := range []struct {
			delta       []byte
			root, count uint64
		}{{nodeDelta, nodeRoot, nodeCount}, {linkDelta, linkRoot, linkCount}} {
			b = binary.AppendUvarint(b, uint64(len(part.delta)))
			b = append(b, part.delta...)
			b = binary.AppendUvarint(b, part.root)
			b = binary.AppendUvarint(b, part.count)
		}
		b = binary.AppendUvarint(b, uint64(g.MaxNodeID()))
		return binary.AppendUvarint(b, uint64(g.MaxLinkID()))
	}
	nodes, links := uint64(g.NumNodes()), uint64(g.NumLinks())
	if !bytes.Equal(section(nodes, links), NewCkptWriter().AppendCheckpoint(nil, g)) {
		t.Fatal("test encoder drifted from AppendCheckpoint")
	}
	for _, c := range [][2]uint64{
		{nodes + 1, links}, {nodes - 1, links}, {1 << 62, links}, {1<<63 + 1, links},
		{nodes, links + 1}, {nodes, links - 1}, {nodes, 1 << 62}, {nodes, 1<<63 + 1},
	} {
		if _, err := NewCkptReader().Apply(section(c[0], c[1])); err == nil {
			t.Errorf("counts %d/%d for %d/%d entries accepted", c[0], c[1], nodes, links)
		}
	}
}

// TestCkptReaderRejectsLinksWithoutEnds: a checkpoint whose links name
// far more endpoints than it holds nodes is rejected, not looped on. The
// load numbers the endpoints over a table sized by the node count, so
// that table must grow past it before validation finds the missing ends.
func TestCkptReaderRejectsLinksWithoutEnds(t *testing.T) {
	g := New()
	for i := NodeID(1); i <= 2; i++ {
		if err := g.AddNode(NewNode(i, "user")); err != nil {
			t.Fatal(err)
		}
	}
	// Bypass AddLink, which refuses such links.
	for lid := LinkID(1); lid <= 16; lid++ {
		g.links = g.links.Set(lid, NewLink(lid, NodeID(100+2*lid), NodeID(101+2*lid), "act"))
		g.noteLinkID(lid)
	}
	_, err := NewCkptReader().Apply(NewCkptWriter().AppendCheckpoint(nil, g))
	if !errors.Is(err, ErrMissingEnd) {
		t.Fatalf("checkpoint with 32 missing ends: err %v, want ErrMissingEnd", err)
	}
}
