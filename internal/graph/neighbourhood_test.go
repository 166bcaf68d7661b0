package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// oracleView is the neighbourhood view by its definition, read off the
// adjacency one node at a time: each node's act targets, ascending and
// without repeats, and its act sources, each with the rating of its
// lowest-id act link onto the node. Nodes without act links are absent.
func oracleView(g *Graph) (acts map[NodeID][]NodeID, ends map[NodeID][]Endorser) {
	acts, ends = make(map[NodeID][]NodeID), make(map[NodeID][]Endorser)
	for _, id := range g.NodeIDs() {
		seen := make(map[NodeID]bool)
		for _, l := range g.Out(id) {
			if l.HasType(TypeAct) && !seen[l.Tgt] {
				seen[l.Tgt] = true
				acts[id] = append(acts[id], l.Tgt)
			}
		}
		slices.Sort(acts[id])
		first := make(map[NodeID]*Link)
		for _, l := range g.In(id) {
			if l.HasType(TypeAct) && (first[l.Src] == nil || l.ID < first[l.Src].ID) {
				first[l.Src] = l
			}
		}
		for src, l := range first {
			rating := 1.0
			if v, ok := l.Attrs().Float("rating"); ok {
				rating = v
			}
			ends[id] = append(ends[id], Endorser{ID: src, Rating: rating})
		}
		slices.SortFunc(ends[id], func(a, b Endorser) int { return int(a.ID - b.ID) })
	}
	return acts, ends
}

// viewOf reads the view through the accessors, for every node.
func viewOf(g *Graph) (acts map[NodeID][]NodeID, ends map[NodeID][]Endorser) {
	acts, ends = make(map[NodeID][]NodeID), make(map[NodeID][]Endorser)
	for _, id := range g.NodeIDs() {
		if a := g.Acts(id); a != nil {
			acts[id] = slices.Clone(a)
		}
		if e := g.Endorsers(id); e != nil {
			ends[id] = slices.Clone(e)
		}
	}
	return acts, ends
}

// checkView requires g's view to equal the oracle and a fresh derivation.
func checkView(t *testing.T, g *Graph, ctx string) {
	t.Helper()
	gotActs, gotEnds := viewOf(g)
	wantActs, wantEnds := oracleView(g)
	if !reflect.DeepEqual(gotActs, wantActs) {
		t.Fatalf("%s: Acts = %v, oracle %v", ctx, gotActs, wantActs)
	}
	if !reflect.DeepEqual(gotEnds, wantEnds) {
		t.Fatalf("%s: Endorsers = %v, oracle %v", ctx, gotEnds, wantEnds)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

var viewRatings = []string{"0.5", "2", "-1", "junk"}

// viewOp applies one random write to g, weighted toward the shapes the
// view must follow: act links with and without ratings, repeat acts onto
// one item, PutLink merges that add act or a rating, removals of links and
// of nodes, connect self-loops and new nodes.
func viewOp(rng *rand.Rand, g *Graph) error {
	ids := g.NodeIDs()
	pick := func() NodeID { return ids[rng.Intn(len(ids))] }
	link := func(types ...string) *Link {
		return NewLink(g.MaxLinkID()+1, pick(), pick(), types...)
	}
	switch r := rng.Intn(20); {
	case r < 2:
		return g.AddNode(NewNode(g.MaxNodeID()+1, TypeUser))
	case r < 8:
		l := link(TypeAct, []string{SubtypeTag, SubtypeReview, SubtypeVisit}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			l.AddAttr("rating", viewRatings[rng.Intn(len(viewRatings))])
		}
		return g.AddLink(l)
	case r < 9:
		u := pick()
		l := NewLink(g.MaxLinkID()+1, u, u, TypeConnect, SubtypeFriend) // self-loop
		return g.AddLink(l)
	case r < 10:
		return g.AddLink(link([]string{TypeMatch, TypeBelong, TypeConnect}[rng.Intn(3)]))
	case r < 14:
		// Consolidation: may add the act type, or a rating the link lacked.
		ls := g.Links()
		if len(ls) == 0 {
			return nil
		}
		ex := ls[rng.Intn(len(ls))]
		more := NewLink(ex.ID, ex.Src, ex.Tgt)
		if rng.Intn(2) == 0 {
			more.AddType(TypeAct)
		}
		if rng.Intn(2) == 0 {
			more.AddAttr("rating", viewRatings[rng.Intn(len(viewRatings))])
		}
		return g.PutLink(more)
	case r < 18:
		ls := g.Links()
		if len(ls) > 0 {
			g.RemoveLink(ls[rng.Intn(len(ls))].ID)
		}
	default:
		if len(ids) > 4 {
			g.RemoveNode(pick())
		}
	}
	return nil
}

// randomBatch records n random writes on a scratch copy of g, then
// sometimes appends hand-built mutations, which carry less than a
// recorder's: a node removal without the link removals a recorder emits
// first (so RemoveNode cascades inside the batch), a link removal naming
// only the link, and a consolidation adding only a rating.
func randomBatch(t *testing.T, rng *rand.Rand, g *Graph, n int) []Mutation {
	t.Helper()
	scratch := g.Clone()
	log := RecordInto(scratch)
	for i := 0; i < n; i++ {
		if err := viewOp(rng, scratch); err != nil {
			t.Fatal(err)
		}
	}
	scratch.SetRecorder(nil)
	muts := log.Drain()
	if ls := scratch.Links(); rng.Intn(3) == 0 && len(ls) > 0 {
		l := ls[rng.Intn(len(ls))]
		muts = append(muts, Mutation{Kind: MutRemoveLink, Link: &Link{ID: l.ID}})
	}
	if ls := scratch.Links(); rng.Intn(3) == 0 && len(ls) > 0 {
		l := ls[rng.Intn(len(ls))]
		rated := &Link{ID: l.ID, Src: l.Src, Tgt: l.Tgt}
		rated.SetAttrs(NewAttrs("rating", "0.25"))
		muts = append(muts, Mutation{Kind: MutPutLink, Link: rated})
	}
	if ids := scratch.NodeIDs(); rng.Intn(3) == 0 && len(ids) > 4 {
		muts = append(muts, Mutation{Kind: MutRemoveNode, Node: scratch.Node(ids[rng.Intn(len(ids))]).Clone()})
	}
	return muts
}

// viewTestGraph is a small site plus random writes, with one popular item
// many users act on repeatedly under different ratings.
func viewTestGraph(rng *rand.Rand) *Graph {
	g := bulkTestGraph(6+rng.Intn(10), 3+rng.Intn(6))
	users := g.NodeIDs()[:6]
	hot := g.MaxNodeID()
	for i := 0; i < 40; i++ {
		l := NewLink(g.MaxLinkID()+1, users[rng.Intn(len(users))], hot, TypeAct, SubtypeReview)
		l.AddAttr("rating", viewRatings[rng.Intn(len(viewRatings))])
		if err := g.AddLink(l); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := viewOp(rng, g); err != nil {
			panic(err)
		}
	}
	return g.ShallowClone()
}

// TestNeighbourhoodIncrementalMatchesRebuild: a snapshot's view, carried
// by ShallowClone and patched by ApplyAll over seeded small (1–8) and
// large (32–71) batches, always equals the oracle — and every parent
// snapshot still reads the view it had before its child's batch.
func TestNeighbourhoodIncrementalMatchesRebuild(t *testing.T) {
	seeds, batches := 30, 25
	if testing.Short() {
		seeds, batches = 8, 12
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := viewTestGraph(rng)
		checkView(t, g, fmt.Sprintf("seed %d base", seed))
		for b := 0; b < batches; b++ {
			n := 1 + rng.Intn(8)
			if rng.Intn(2) == 0 {
				n = 32 + rng.Intn(40)
			}
			muts := randomBatch(t, rng, g, n)
			parentActs, parentEnds := viewOf(g)
			parentView := g.view.Load()
			child := g.ShallowClone()
			if child.view.Load() != parentView {
				t.Fatalf("seed %d batch %d: ShallowClone did not carry the view", seed, b)
			}
			if err := child.ApplyAll(muts); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, b, err)
			}
			if child.view.Load() == nil {
				t.Fatalf("seed %d batch %d: ApplyAll dropped the view", seed, b)
			}
			ctx := fmt.Sprintf("seed %d batch %d (%d mutations)", seed, b, len(muts))
			checkView(t, child, ctx)
			if g.view.Load() != parentView {
				t.Fatalf("%s: the parent's view was replaced", ctx)
			}
			if acts, ends := viewOf(g); !reflect.DeepEqual(acts, parentActs) || !reflect.DeepEqual(ends, parentEnds) {
				t.Fatalf("%s: the parent's view changed under its child's batch", ctx)
			}
			g = child
		}
	}
}

// TestNeighbourhoodDroppedByDirectWrites: any write outside ApplyAll drops
// the view, so does a batch that fails after a write, and the next read
// rebuilds it from the adjacency.
func TestNeighbourhoodDroppedByDirectWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := viewTestGraph(rng)
	for i := 0; i < 200; i++ {
		g.Acts(0) // build
		if err := viewOp(rng, g); err != nil {
			t.Fatal(err)
		}
		if g.view.Load() != nil && g.view.Load().check(buildNeighbourhood(g)) != nil {
			t.Fatalf("step %d: a direct write left a stale view", i)
		}
		checkView(t, g, fmt.Sprintf("step %d", i))
	}
	g.Acts(0)
	l := g.Links()[0]
	bad := []Mutation{
		{Kind: MutAddNode, Node: NewNode(g.MaxNodeID()+1, TypeItem)},
		{Kind: MutPutLink, Link: NewLink(l.ID, l.Tgt+l.Src+1, l.Tgt)},
	}
	if err := g.ApplyAll(bad); err == nil {
		t.Fatal("a consolidation moving a link's endpoint was accepted")
	}
	if g.view.Load() != nil {
		t.Fatal("a batch that failed after a write kept the view")
	}
	checkView(t, g, "after a failed batch")
}

// TestValidateChecksNeighbourhood: Validate compares a present view with a
// fresh derivation.
func TestValidateChecksNeighbourhood(t *testing.T) {
	g := viewTestGraph(rand.New(rand.NewSource(3)))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	v := g.neighbourhood()
	u := g.NodeIDs()[0]
	wrong := &neighbourhood{acts: v.acts.Set(u, []NodeID{-1}), endorsers: v.endorsers}
	g.view.Store(wrong)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a view with a wrong Acts vector")
	}
	g.view.Store(v)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNeighbourhoodConcurrentBuild: readers build the view lazily on each
// published snapshot while a writer derives successors by ShallowClone +
// ApplyAll. Under -race, any unsynchronized access to the view is a
// reported race; every snapshot must still match its oracle.
func TestNeighbourhoodConcurrentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := viewTestGraph(rng)
	var published atomic.Pointer[Graph]
	published.Store(g)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := published.Load()
				for _, id := range s.NodeIDs() {
					_ = s.Acts(id)
					_ = s.Endorsers(id)
				}
			}
		}()
	}
	var snaps []*Graph
	for b := 0; b < 40; b++ {
		n := 1 + rng.Intn(6)
		if b%5 == 0 {
			n = 32
		}
		cur := published.Load()
		muts := randomBatch(t, rng, cur, n)
		next := cur.ShallowClone()
		if err := next.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		published.Store(next)
		snaps = append(snaps, next)
	}
	close(stop)
	wg.Wait()
	for i, s := range snaps {
		checkView(t, s, fmt.Sprintf("snapshot %d", i))
	}
}

// TestConnectionsAndActs pins network(u) and items(u) as the discovery,
// clustering and presentation layers read them: connections count in both
// directions, once each, in ascending order; a connect self-loop puts u in
// its own network; a non-user endpoint counts; a user with no act links has
// no items.
func TestConnectionsAndActs(t *testing.T) {
	b := NewBuilder()
	u1 := b.Node([]string{TypeUser})
	u2 := b.Node([]string{TypeUser})
	u3 := b.Node([]string{TypeUser})
	topic := b.Node([]string{TypeTopic})
	i1 := b.Node([]string{TypeItem})
	b.Link(u3, u1, []string{TypeConnect, SubtypeFriend})
	b.Link(u1, u2, []string{TypeConnect, SubtypeFriend})
	b.Link(u2, u1, []string{TypeConnect, SubtypeContact}) // the reverse repeats it
	b.Link(u1, topic, []string{TypeConnect})
	b.Link(u3, u3, []string{TypeConnect, SubtypeFriend})
	b.Link(u1, i1, []string{TypeAct, SubtypeVisit})
	b.Link(u1, u2, []string{TypeMatch}) // not a connection
	g := b.Graph()

	for _, c := range []struct {
		u    NodeID
		want []NodeID
	}{
		{u1, []NodeID{u2, u3, topic}},
		{u2, []NodeID{u1}},
		{u3, []NodeID{u1, u3}},
		{topic, []NodeID{u1}},
		{i1, nil},
	} {
		if got := g.Connections(c.u); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Connections(%d) = %v, want %v", c.u, got, c.want)
		}
	}
	g.Connections(u1)[0] = 99 // the caller owns the slice
	if got := g.Connections(u1); got[0] != u2 {
		t.Errorf("Connections(%d) shares its result: %v", u1, got)
	}
	if got := g.Acts(u1); !reflect.DeepEqual(got, []NodeID{i1}) {
		t.Errorf("Acts(%d) = %v, want [%d]", u1, got, i1)
	}
	if got := g.Acts(u2); got != nil {
		t.Errorf("Acts(%d) = %v, want none", u2, got)
	}
}
