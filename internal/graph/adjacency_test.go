package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracleAdjacency is the id-resolving definition of Out and In: for each
// node, the stored link of every id whose source (target) it is, in
// ascending id order — what resolving a list of link ids against the link
// map gives.
func oracleAdjacency(g *Graph) (out, in map[NodeID][]*Link) {
	out, in = make(map[NodeID][]*Link), make(map[NodeID][]*Link)
	for _, id := range g.LinkIDs() {
		l := g.Link(id)
		out[l.Src] = append(out[l.Src], l)
		in[l.Tgt] = append(in[l.Tgt], l)
	}
	return out, in
}

// adjSnapshot is a snapshot with what the oracle said at the moment it was
// taken, plus a deep copy of every link value then.
type adjSnapshot struct {
	name    string
	g       *Graph
	nodes   []NodeID
	out, in map[NodeID][]*Link
	values  map[LinkID]*Link
}

func recordSnapshot(name string, g *Graph) adjSnapshot {
	s := adjSnapshot{name: name, g: g, nodes: g.NodeIDs(), values: make(map[LinkID]*Link)}
	s.out, s.in = oracleAdjacency(g)
	for _, l := range g.Links() {
		s.values[l.ID] = l.Clone()
	}
	return s
}

// check reports any way the snapshot drifted from its record: Out/In no
// longer the recorded pointers in the recorded order, a link value changed,
// or Validate failing.
func (s adjSnapshot) check(t *testing.T, when string) {
	t.Helper()
	if err := s.g.Validate(); err != nil {
		t.Fatalf("%s: snapshot %s invalid: %v", when, s.name, err)
	}
	if s.g.NumLinks() != len(s.values) {
		t.Fatalf("%s: snapshot %s holds %d links, recorded %d", when, s.name, s.g.NumLinks(), len(s.values))
	}
	for _, id := range s.nodes {
		if got := s.g.Out(id); !slices.Equal(got, s.out[id]) {
			t.Fatalf("%s: snapshot %s Out(%d) = %v, oracle gave %v", when, s.name, id, got, s.out[id])
		}
		if got := s.g.In(id); !slices.Equal(got, s.in[id]) {
			t.Fatalf("%s: snapshot %s In(%d) = %v, oracle gave %v", when, s.name, id, got, s.in[id])
		}
	}
	for id, want := range s.values {
		if got := s.g.Link(id); !got.Equal(want) {
			t.Fatalf("%s: snapshot %s link %d = %v, was %v", when, s.name, id, got, want)
		}
	}
}

// heldSlice is an Out/In result (or a caller's append to one), with a copy
// of its elements then: a stored slice is never written below its length,
// so the held slice must still read the same after every later write,
// including a bulk window's in-place appends.
type heldSlice struct {
	got, want []*Link
}

var adjLinkTypes = [][]string{
	{TypeAct, SubtypeTag}, {TypeAct, SubtypeVisit}, {TypeConnect, SubtypeFriend},
	{TypeAct}, {TypeBelong}, {SubtypeTag, TypeAct}, {"custom"},
}

type adjDriver struct {
	t     *testing.T
	rng   *rand.Rand
	g     *Graph
	snaps []adjSnapshot
	held  []heldSlice
	step  int
}

func (d *adjDriver) pickNode(g *Graph) (NodeID, bool) {
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[d.rng.Intn(len(ids))], true
}

func (d *adjDriver) pickLink(g *Graph) (*Link, bool) {
	ids := g.LinkIDs()
	if len(ids) == 0 {
		return nil, false
	}
	return g.Link(ids[d.rng.Intn(len(ids))]), true
}

// freshLinkID is usually past every id the graph has held (the appending
// case) and sometimes an unused id below existing ones (the middle insert).
func (d *adjDriver) freshLinkID(g *Graph) LinkID {
	if d.rng.Intn(3) > 0 {
		return g.MaxLinkID() + 1 + LinkID(d.rng.Intn(3))
	}
	for {
		id := LinkID(1 + d.rng.Intn(int(g.MaxLinkID())+1))
		if !g.HasLink(id) {
			return id
		}
	}
}

func (d *adjDriver) newLink(g *Graph) (*Link, bool) {
	src, ok := d.pickNode(g)
	if !ok {
		return nil, false
	}
	tgt, _ := d.pickNode(g)
	l := NewLink(d.freshLinkID(g), src, tgt, adjLinkTypes[d.rng.Intn(len(adjLinkTypes))]...)
	l.Attrs.Add("k", fmt.Sprintf("v%d", d.rng.Intn(4)))
	return l, true
}

// directOp applies one random write to g through the Graph API.
func (d *adjDriver) directOp(g *Graph) {
	switch r := d.rng.Intn(20); {
	case r < 3 && (g.NumNodes() < 24 || d.rng.Intn(8) == 0): // few nodes, high degree
		if err := g.AddNode(NewNode(g.MaxNodeID()+1, TypeUser)); err != nil {
			d.t.Fatal(err)
		}
	case r < 11:
		if l, ok := d.newLink(g); ok {
			if err := g.AddLink(l); err != nil {
				d.t.Fatal(err)
			}
		}
	case r < 14:
		// Consolidation: the merged clone must replace the resident link
		// in both endpoint slices.
		if ex, ok := d.pickLink(g); ok {
			more := NewLink(ex.ID, ex.Src, ex.Tgt, fmt.Sprintf("extra%d", d.rng.Intn(3)))
			more.Attrs.Add("k", fmt.Sprintf("v%d", d.rng.Intn(6)))
			if err := g.PutLink(more); err != nil {
				d.t.Fatal(err)
			}
		}
	case r < 15:
		if l, ok := d.newLink(g); ok {
			if err := g.PutLink(l); err != nil {
				d.t.Fatal(err)
			}
		}
	case r < 19:
		if l, ok := d.pickLink(g); ok {
			g.RemoveLink(l.ID)
		}
	default:
		if id, ok := d.pickNode(g); ok && d.rng.Intn(3) == 0 {
			g.RemoveNode(id)
		}
	}
}

// hold keeps an Out or In result of a random node, and checks that
// appending to it copies instead of reaching the graph's spare capacity.
func (d *adjDriver) hold(g *Graph) {
	id, ok := d.pickNode(g)
	if !ok {
		return
	}
	ls := g.Out(id)
	if d.rng.Intn(2) == 0 {
		ls = g.In(id)
	}
	d.held = append(d.held, heldSlice{got: ls, want: slices.Clone(ls)})
	sentinel := NewLink(-1, id, id, "sentinel")
	grown := append(ls, sentinel)
	if slices.Contains(g.Out(id), sentinel) || slices.Contains(g.In(id), sentinel) {
		d.t.Fatalf("append to Out/In(%d) reached the graph's own slice", id)
	}
	d.held = append(d.held, heldSlice{got: grown, want: slices.Clone(grown)})
}

func (d *adjDriver) snapshot(name string, g *Graph) {
	s := recordSnapshot(fmt.Sprintf("%s@%d", name, d.step), g)
	s.check(d.t, "when taken")
	d.snaps = append(d.snaps, s)
}

// twinClones is the spare-capacity aliasing trap: two clones of one graph
// that both append a link to the same node, inside bulk windows (where
// owned slices grow in place) or not.
func (d *adjDriver) twinClones() {
	base := d.g.ShallowClone()
	x, ok := d.pickNode(base)
	if !ok {
		return
	}
	before := slices.Clone(base.Out(x))
	a, b := base.ShallowClone(), base.ShallowClone()
	bulk := d.rng.Intn(2) == 0
	if bulk {
		a.BeginBulk()
		b.BeginBulk()
	}
	la := NewLink(base.MaxLinkID()+1, x, x, TypeAct, SubtypeTag)
	lb := NewLink(base.MaxLinkID()+1, x, x, TypeConnect, SubtypeFriend)
	if err := a.AddLink(la); err != nil {
		d.t.Fatal(err)
	}
	if err := b.AddLink(lb); err != nil {
		d.t.Fatal(err)
	}
	// A second round appends again where each clone now owns the slice.
	la2 := NewLink(base.MaxLinkID()+2, x, x, TypeAct)
	lb2 := NewLink(base.MaxLinkID()+2, x, x, TypeBelong)
	if err := a.AddLink(la2); err != nil {
		d.t.Fatal(err)
	}
	if err := b.AddLink(lb2); err != nil {
		d.t.Fatal(err)
	}
	a.EndBulk()
	b.EndBulk()
	if got, want := a.Out(x), append(slices.Clone(before), la, la2); !slices.Equal(got, want) {
		d.t.Fatalf("twin clone a (bulk %v): Out(%d) = %v, want %v", bulk, x, got, want)
	}
	if got, want := b.Out(x), append(slices.Clone(before), lb, lb2); !slices.Equal(got, want) {
		d.t.Fatalf("twin clone b (bulk %v): Out(%d) = %v, want %v", bulk, x, got, want)
	}
	if !slices.Equal(base.Out(x), before) {
		d.t.Fatalf("twin clones reached their origin's Out(%d)", x)
	}
	d.snapshot("twin-a", a)
	d.snapshot("twin-b", b)
}

// applyBatch replays a recorded batch of direct ops through ApplyAll, below
// or at/above BulkApplyThreshold, and requires the same graph as the
// direct path.
func (d *adjDriver) applyBatch() {
	n := 1 + d.rng.Intn(8)
	if d.rng.Intn(2) == 0 {
		n = BulkApplyThreshold + d.rng.Intn(40)
	}
	direct := d.g.ShallowClone()
	log := RecordInto(direct)
	for i := 0; i < n; i++ {
		d.directOp(direct)
	}
	direct.SetRecorder(nil)
	if err := d.g.ApplyAll(log.Drain()); err != nil {
		d.t.Fatal(err)
	}
	if !d.g.Equal(direct) {
		d.t.Fatalf("ApplyAll of a %d-op batch differs from the direct ops", n)
	}
}

// bulkWindow runs direct ops inside an open window, holding Out/In results
// and sometimes taking a snapshot mid-window (which seals it).
func (d *adjDriver) bulkWindow() {
	d.g.BeginBulk()
	for i, n := 0, 5+d.rng.Intn(30); i < n; i++ {
		switch d.rng.Intn(8) {
		case 0:
			d.hold(d.g)
		case 1:
			if d.rng.Intn(4) == 0 {
				d.snapshot("mid-window", d.g.ShallowClone())
			}
		default:
			d.directOp(d.g)
		}
	}
	d.g.EndBulk()
}

// rebuild copies the graph through a Builder in ascending link-id order —
// the in-place append path — and continues on the copy.
func (d *adjDriver) rebuild() {
	b := NewBuilder()
	for _, n := range d.g.Nodes() {
		if err := b.Peek().AddNode(n.Clone()); err != nil {
			d.t.Fatal(err)
		}
	}
	for _, l := range d.g.Links() {
		if err := b.Peek().AddLink(l.Clone()); err != nil {
			d.t.Fatal(err)
		}
		if d.rng.Intn(8) == 0 {
			d.hold(b.Peek())
		}
	}
	g := b.Graph()
	if !g.Equal(d.g) {
		d.t.Fatal("Builder copy differs from its source")
	}
	g.maxNode, g.maxLink = d.g.maxNode, d.g.maxLink
	d.g = g
}

func (d *adjDriver) run(steps int) {
	for d.step = 0; d.step < steps; d.step++ {
		switch r := d.rng.Intn(20); {
		case r < 10:
			d.directOp(d.g)
		case r < 12:
			d.applyBatch()
		case r < 14:
			d.bulkWindow()
		case r < 16:
			d.snapshot("snap", d.g.ShallowClone())
		case r < 17:
			d.twinClones()
		case r < 18:
			d.hold(d.g)
		case r < 19:
			d.rebuild()
		default:
			c := d.g.Clone()
			d.snapshot("deep-clone", c)
			if err := c.Validate(); err != nil {
				d.t.Fatal(err)
			}
		}
	}
}

// TestAdjacencyMatchesIDOracle drives random writes — direct, batched below
// and above BulkApplyThreshold, inside bulk windows, through Builders —
// while taking snapshots, and requires every snapshot to still read, after
// all later writes, exactly what the id-resolving definition gave when it
// was taken. A reader goroutine walks published snapshots throughout, so
// under -race any in-place write to shared adjacency is a reported race.
func TestAdjacencyMatchesIDOracle(t *testing.T) {
	seeds, steps := 20, 300
	if testing.Short() {
		seeds, steps = 6, 150
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		d := &adjDriver{t: t, rng: rng, g: bulkTestGraph(8+rng.Intn(12), 4+rng.Intn(6))}
		published := make(chan *Graph, 4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range published {
				for _, id := range g.NodeIDs() {
					for _, l := range g.Out(id) {
						_ = l.Src
					}
					for _, l := range g.In(id) {
						_ = l.Tgt
					}
				}
			}
		}()
		d.run(steps)
		for _, s := range d.snaps {
			published <- s.g
		}
		close(published)
		wg.Wait()
		for _, s := range d.snaps {
			s.check(t, fmt.Sprintf("seed %d end", seed))
		}
		for i, h := range d.held {
			if !slices.Equal(h.got, h.want) {
				t.Fatalf("seed %d: held Out/In result %d changed from %v to %v", seed, i, h.want, h.got)
			}
		}
		if err := d.g.Validate(); err != nil {
			t.Fatalf("seed %d: live graph invalid: %v", seed, err)
		}
	}
	// Shared catalog type sets are never written.
	want := [][]string{
		{"connect"}, {"connect", "friend"}, {"connect", "contact"},
		{"act"}, {"act", "tag"}, {"act", "review"}, {"act", "click"},
		{"act", "visit"}, {"act", "rating"}, {"match"}, {"belong"},
	}
	for i, s := range linkTypeSets {
		if !slices.Equal(s, want[i]) || cap(s) != len(s) {
			t.Fatalf("shared type set %d is now %v (cap %d)", i, s, cap(s))
		}
	}
}

// TestOutAppendCopies: appending to an Out result — on a sealed graph or
// inside a bulk window whose slice has spare capacity — never changes the
// graph's own list, and the graph's later in-place appends never change
// the caller's.
func TestOutAppendCopies(t *testing.T) {
	b := NewBuilder()
	u := b.Node([]string{TypeUser})
	v := b.Node([]string{TypeItem})
	for i := 0; i < 3; i++ {
		b.Link(u, v, []string{TypeAct})
	}
	g := b.Peek()
	mine := append(g.Out(u), NewLink(-1, u, v, "mine"))
	b.Link(u, v, []string{TypeAct, SubtypeTag})
	if mine[3].ID != -1 {
		t.Fatalf("the graph's in-place append overwrote the caller's slice: %v", mine)
	}
	if g.Out(u)[3].ID == -1 || g.OutDegree(u) != 4 {
		t.Fatalf("the caller's append reached the graph: %v", g.Out(u))
	}
	sealed := b.Graph()
	_ = append(sealed.Out(u), NewLink(-2, u, v, "mine"))
	if got := sealed.Out(u); len(got) != 4 || got[3].ID == -2 {
		t.Fatalf("append to a sealed graph's Out reached it: %v", got)
	}
}

// TestSharedTypesOnApply: the links Apply stores — including every link a
// WAL batch decodes to, which is how followers and recovery replay — share
// the catalog's type-set slices; other type sets keep private copies, and
// AddType on a shared set copies.
func TestSharedTypesOnApply(t *testing.T) {
	g := New()
	for i := NodeID(1); i <= 2; i++ {
		if err := g.AddNode(NewNode(i, TypeUser)); err != nil {
			t.Fatal(err)
		}
	}
	tagged := &Link{ID: 1, Src: 1, Tgt: 2, Types: []string{TypeAct, SubtypeTag}}
	odd := &Link{ID: 2, Src: 1, Tgt: 2, Types: []string{SubtypeTag, TypeAct}}
	wire := AppendMutations(nil, []Mutation{{Kind: MutAddLink, Link: tagged}, {Kind: MutAddLink, Link: odd}})
	muts, err := DecodeMutations(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	shared := sharedTypes([]string{TypeAct, SubtypeTag})
	if got := g.Link(1).Types; &got[0] != &shared[0] {
		t.Error("decoded act,tag link does not share the catalog type set")
	}
	if got := g.Link(2).Types; &got[0] == &muts[1].Link.Types[0] || sharedTypes(got) != nil {
		t.Error("a non-catalog type set must be a private copy")
	}
	l := g.Link(1).Clone()
	l.Types = g.Link(1).Types
	l.AddType("extra")
	if !slices.Equal(shared, []string{TypeAct, SubtypeTag}) || !slices.Equal(g.Link(1).Types, shared) {
		t.Fatalf("AddType wrote the shared set: %v", shared)
	}
}
