package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/persist"
	"socialscope/internal/scoring"
)

// The differential harness: a live graph absorbs a random mutation stream
// while ApplyDelta maintains the index incrementally; after every batch
// the maintained index must be byte-identical — same lists, same order,
// same scores — to a from-scratch Build over the mutated graph. This is
// the executable statement of the maintenance contract: incremental ≡
// rebuild.

// diffCorpus is the mutable state of one differential run.
type diffCorpus struct {
	g     *graph.Graph
	users []graph.NodeID
	items []graph.NodeID
	tags  []string
	// present source links, by kind, for removal picks.
	tagLinks  []*graph.Link
	connLinks []*graph.Link
	nextLink  graph.LinkID
	nextNode  graph.NodeID
}

func newDiffCorpus(t *testing.T, rng *rand.Rand, users, items, tags int) *diffCorpus {
	t.Helper()
	c := &diffCorpus{g: graph.New()}
	for i := 0; i < users; i++ {
		c.nextNode++
		if err := c.g.AddNode(graph.NewNode(c.nextNode, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
		c.users = append(c.users, c.nextNode)
	}
	for i := 0; i < items; i++ {
		c.nextNode++
		if err := c.g.AddNode(graph.NewNode(c.nextNode, graph.TypeItem)); err != nil {
			t.Fatal(err)
		}
		c.items = append(c.items, c.nextNode)
	}
	for i := 0; i < tags; i++ {
		c.tags = append(c.tags, fmt.Sprintf("tag%02d", i))
	}
	// Seed activity so the initial Build is non-trivial.
	for i := 0; i < users*2; i++ {
		c.g.ApplyAll([]graph.Mutation{c.randConnect(rng)})
	}
	// One connection asserted twice as a self-loop: a duplicate whose two
	// directions are one.
	for i := 0; i < 2; i++ {
		c.nextLink++
		l := graph.NewLink(c.nextLink, c.users[0], c.users[0], graph.TypeConnect)
		c.connLinks = append(c.connLinks, l)
		c.g.ApplyAll([]graph.Mutation{{Kind: graph.MutAddLink, Link: l}})
	}
	for i := 0; i < users*3; i++ {
		c.g.ApplyAll([]graph.Mutation{c.randTagging(rng)})
	}
	return c
}

func (c *diffCorpus) newTagLink(src, tgt graph.NodeID, tags ...string) *graph.Link {
	c.nextLink++
	l := graph.NewLink(c.nextLink, src, tgt, graph.TypeAct, graph.SubtypeTag)
	for _, tag := range tags {
		l.AddAttr("tags", tag)
	}
	c.tagLinks = append(c.tagLinks, l)
	return l
}

func (c *diffCorpus) randTagging(rng *rand.Rand) graph.Mutation {
	u := c.users[rng.Intn(len(c.users))]
	i := c.items[rng.Intn(len(c.items))]
	n := 1 + rng.Intn(2) // multi-tag links exercise the per-tag path
	tags := make([]string, 0, n)
	for len(tags) < n {
		tags = append(tags, c.tags[rng.Intn(len(c.tags))])
	}
	return graph.Mutation{Kind: graph.MutAddLink, Link: c.newTagLink(u, i, tags...)}
}

func (c *diffCorpus) randConnect(rng *rand.Rand) graph.Mutation {
	u := c.users[rng.Intn(len(c.users))]
	v := c.users[rng.Intn(len(c.users))]
	c.nextLink++
	l := graph.NewLink(c.nextLink, u, v, graph.TypeConnect, graph.SubtypeFriend)
	c.connLinks = append(c.connLinks, l)
	return graph.Mutation{Kind: graph.MutAddLink, Link: l}
}

// randMutation draws one mutation: mostly new taggings and connections
// (including deliberate parallel duplicates), with a steady stream of
// retractions and occasionally a brand-new item joining the site.
func (c *diffCorpus) randMutation(rng *rand.Rand) graph.Mutation {
	switch p := rng.Float64(); {
	case p < 0.40:
		return c.randTagging(rng)
	case p < 0.55:
		return c.randConnect(rng)
	case p < 0.60: // brand-new item, immediately tagged
		c.nextNode++
		c.items = append(c.items, c.nextNode)
		return graph.Mutation{Kind: graph.MutAddNode,
			Node: graph.NewNode(c.nextNode, graph.TypeItem)}
	case p < 0.65: // brand-new tag vocabulary entry
		tag := fmt.Sprintf("tag%02d", len(c.tags))
		c.tags = append(c.tags, tag)
		u := c.users[rng.Intn(len(c.users))]
		i := c.items[rng.Intn(len(c.items))]
		return graph.Mutation{Kind: graph.MutAddLink, Link: c.newTagLink(u, i, tag)}
	case p < 0.85 && len(c.tagLinks) > 0: // retract a tagging action
		i := rng.Intn(len(c.tagLinks))
		l := c.tagLinks[i]
		c.tagLinks = append(c.tagLinks[:i], c.tagLinks[i+1:]...)
		return graph.Mutation{Kind: graph.MutRemoveLink, Link: l.Clone()}
	case len(c.connLinks) > 0: // retract a connection
		i := rng.Intn(len(c.connLinks))
		l := c.connLinks[i]
		c.connLinks = append(c.connLinks[:i], c.connLinks[i+1:]...)
		return graph.Mutation{Kind: graph.MutRemoveLink, Link: l.Clone()}
	default:
		return c.randTagging(rng)
	}
}

// assertSameLists fails unless the two indexes hold byte-identical posting
// lists — same (cluster, tag) keys, same entries in the same order with the
// same scores — over the same substrate.
func assertSameLists(t *testing.T, got, want *Index, ctx string) {
	t.Helper()
	assertSameData(t, got.Data(), want.Data(), ctx)
	if got.EntryCount() != want.EntryCount() {
		t.Fatalf("%s: entry count %d, want %d", ctx, got.EntryCount(), want.EntryCount())
	}
	if got.NumLists() != want.NumLists() {
		t.Fatalf("%s: list count %d, want %d", ctx, got.NumLists(), want.NumLists())
	}
	type key struct {
		cluster int
		tag     string
	}
	wantLists := make(map[key][]Entry, want.NumLists())
	want.ForEachList(func(cl int, tag string, l []Entry) {
		wantLists[key{cl, tag}] = l
	})
	got.ForEachList(func(cl int, tag string, l []Entry) {
		w, ok := wantLists[key{cl, tag}]
		if !ok {
			t.Fatalf("%s: maintained index has list (%d,%q) the rebuild lacks", ctx, cl, tag)
		}
		if len(w) != len(l) {
			t.Fatalf("%s: list (%d,%q) has %d entries, want %d\n got %v\nwant %v",
				ctx, cl, tag, len(l), len(w), l, w)
		}
		for i := range l {
			if l[i] != w[i] {
				t.Fatalf("%s: list (%d,%q) entry %d = %+v, want %+v",
					ctx, cl, tag, i, l[i], w[i])
			}
		}
	})
}

// dataDump is a Data's content in comparable form: every vector family
// keyed as stored (an empty vector reads as nil), and the duplicate counts.
type dataDump struct {
	Users, Items []graph.NodeID
	Tags         []string
	Network      map[graph.NodeID][]graph.NodeID
	Taggers      map[string]map[graph.NodeID][]graph.NodeID
	TagDups      map[taggingKey]int
	ConnDups     map[edgeKey]int
}

func dumpVectors[K comparable, V any](m persist.Map[K, []V]) map[K][]V {
	out := make(map[K][]V, m.Len())
	m.Range(func(k K, v []V) bool {
		out[k] = persist.CloneExact(v)
		return true
	})
	return out
}

func dumpData(d *Data) dataDump {
	dd := dataDump{
		Users: persist.CloneExact(d.Users), Items: persist.CloneExact(d.Items), Tags: persist.CloneExact(d.Tags),
		Network:  dumpVectors(d.Network),
		Taggers:  make(map[string]map[graph.NodeID][]graph.NodeID),
		TagDups:  make(map[taggingKey]int),
		ConnDups: make(map[edgeKey]int),
	}
	d.Taggers.Range(func(tag string, byItem ItemTaggers) bool {
		dd.Taggers[tag] = dumpVectors(byItem)
		return true
	})
	d.tagDups.Range(func(k taggingKey, n int) bool {
		dd.TagDups[k] = n
		return true
	})
	d.connDups.Range(func(k edgeKey, n int) bool {
		dd.ConnDups[k] = n
		return true
	})
	return dd
}

// assertSameData fails unless the two substrates hold the same facts:
// universes, vectors and duplicate counts.
func assertSameData(t *testing.T, got, want *Data, ctx string) {
	t.Helper()
	if g, w := dumpData(got), dumpData(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: substrate differs\n got %+v\nwant %+v", ctx, g, w)
	}
}

func assertSorted(t *testing.T, ix *Index, ctx string) {
	t.Helper()
	ix.ForEachList(func(cl int, tag string, l []Entry) {
		for i := 1; i < len(l); i++ {
			if less(l[i-1], l[i]) {
				t.Fatalf("%s: list (%d,%q) out of order at %d: %+v before %+v",
					ctx, cl, tag, i, l[i-1], l[i])
			}
			if l[i].Score <= 0 {
				t.Fatalf("%s: list (%d,%q) stores non-positive score %+v", ctx, cl, tag, l[i])
			}
		}
	})
}

// TestDifferentialIncrementalVsRebuild drives > 1000 random mutations per
// clustering strategy through ApplyDelta and cross-checks against a full
// rebuild after every batch.
func TestDifferentialIncrementalVsRebuild(t *testing.T) {
	const (
		batches   = 26
		batchSize = 8
		seeds     = 5
	)
	strategies := []struct {
		s     cluster.Strategy
		theta float64
	}{
		{cluster.PerUser, 0},
		{cluster.Global, 0},
		{cluster.NetworkBased, 0.25},
		{cluster.BehaviorBased, 0.4},
	}
	for _, sc := range strategies {
		sc := sc
		t.Run(sc.s.String(), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed*7919 + 17))
				c := newDiffCorpus(t, rng, 14, 20, 5)
				cl, err := cluster.Build(c.g, sc.s, sc.theta)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := Build(Extract(c.g), cl, nil)
				if err != nil {
					t.Fatal(err)
				}
				for batch := 0; batch < batches; batch++ {
					muts := make([]graph.Mutation, batchSize)
					for i := range muts {
						muts[i] = c.randMutation(rng)
					}
					pre := c.g.ShallowClone()
					if err := c.g.ApplyAll(muts); err != nil {
						t.Fatalf("seed %d batch %d: %v", seed, batch, err)
					}
					ix = ix.ApplyDelta(pre, muts)
					ctx := fmt.Sprintf("%s seed %d batch %d", sc.s, seed, batch)
					assertSorted(t, ix, ctx)
					rebuilt, err := Build(Extract(c.g), ix.Clustering(), nil)
					if err != nil {
						t.Fatal(err)
					}
					assertSameLists(t, ix, rebuilt, ctx)
				}
				if got, want := ix.Version(), uint64(batches); got != want {
					t.Errorf("seed %d: version %d, want %d", seed, got, want)
				}
			}
		})
	}
}

// TestDifferentialRecordedChangelog drives the same contract through the
// recorder: mutations are performed directly on the graph, the changelog
// is drained, and replaying it through ApplyDelta must match a rebuild.
// This covers consolidation (PutLink re-asserting and extending tag sets)
// and cascading node removal, which hand-built mutations above do not.
func TestDifferentialRecordedChangelog(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := newDiffCorpus(t, rng, 12, 16, 4)
	cl, err := cluster.Build(c.g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Extract(c.g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := graph.RecordInto(c.g)

	step := func(ctx string, mutate func()) {
		t.Helper()
		pre := c.g.ShallowClone()
		mutate()
		ix = ix.ApplyDelta(pre, log.Drain())
		rebuilt, err := Build(Extract(c.g), ix.Clustering(), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameLists(t, ix, rebuilt, ctx)
	}

	// Consolidate an existing tag link: re-assert its tag and add one.
	target := c.tagLinks[0]
	step("putlink extends tags", func() {
		ext := target.Clone()
		ext.SetAttrs(graph.NewAttrs("tags", ext.Attrs().All("tags")[0], "tags", "brandnew"))
		if err := c.g.PutLink(ext); err != nil {
			t.Fatal(err)
		}
	})
	// Remove the consolidated link: both its tags must retract.
	step("remove consolidated link", func() {
		c.g.RemoveLink(target.ID)
	})
	// A new user arrives, connects, and tags.
	var newcomer graph.NodeID
	step("new user joins", func() {
		c.nextNode++
		newcomer = c.nextNode
		if err := c.g.AddNode(graph.NewNode(newcomer, graph.TypeUser)); err != nil {
			t.Fatal(err)
		}
		c.nextLink++
		if err := c.g.AddLink(graph.NewLink(c.nextLink, newcomer, c.users[0], graph.TypeConnect)); err != nil {
			t.Fatal(err)
		}
		l := c.newTagLink(newcomer, c.items[0], c.tags[0])
		if err := c.g.AddLink(l); err != nil {
			t.Fatal(err)
		}
	})
	// A heavy user quits: cascading removal of every incident link.
	step("user quits", func() {
		c.g.RemoveNode(c.users[1])
	})
	if ix.Version() != 4 {
		t.Errorf("version %d after 4 batches, want 4", ix.Version())
	}
}

// TestDifferentialHandBuiltItemRemoval covers the mutation shape a
// recorder never produces: a bare MutRemoveNode for a tagged item with no
// preceding link removals. ApplyDelta must retract the item's postings
// itself so the index never serves an item the graph no longer holds.
func TestDifferentialHandBuiltItemRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := newDiffCorpus(t, rng, 12, 15, 4)
	cl, err := cluster.Build(c.g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Extract(c.g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pick an item that actually has postings.
	var victim graph.NodeID = -1
	ix.ForEachList(func(cl int, tag string, l []Entry) {
		if victim < 0 && len(l) > 0 {
			victim = l[0].Item
		}
	})
	if victim < 0 {
		t.Fatal("corpus has no postings")
	}
	muts := []graph.Mutation{{Kind: graph.MutRemoveNode, Node: graph.NewNode(victim, graph.TypeItem)}}
	pre := c.g.ShallowClone()
	if err := c.g.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	ix = ix.ApplyDelta(pre, muts)
	rebuilt, err := Build(Extract(c.g), ix.Clustering(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLists(t, ix, rebuilt, "hand-built item removal")
	ix.ForEachList(func(cl int, tag string, l []Entry) {
		for _, e := range l {
			if e.Item == victim {
				t.Fatalf("ghost posting for removed item %d in (%d,%q)", victim, cl, tag)
			}
		}
	})
	for _, it := range ix.Data().Items {
		if it == victim {
			t.Errorf("removed item %d still in Items universe", victim)
		}
	}

	// Roles compose: a user node can itself be a tagged target. Removing
	// such a node must retract both its activity and its postings.
	guru := c.users[0]
	tagged := c.newTagLink(c.users[1], guru, c.tags[0])
	muts = []graph.Mutation{{Kind: graph.MutAddLink, Link: tagged}}
	pre = c.g.ShallowClone()
	if err := c.g.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	ix = ix.ApplyDelta(pre, muts)
	muts = []graph.Mutation{{Kind: graph.MutRemoveNode, Node: graph.NewNode(guru, graph.TypeUser)}}
	pre = c.g.ShallowClone()
	if err := c.g.ApplyAll(muts); err != nil {
		t.Fatal(err)
	}
	ix = ix.ApplyDelta(pre, muts)
	rebuilt, err = Build(Extract(c.g), ix.Clustering(), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLists(t, ix, rebuilt, "hand-built tagged-user removal")
}

// TestApplyDeltaIsCopyOnWrite pins the RCU contract: a snapshot taken
// before ApplyDelta must remain byte-identical afterwards, and answer
// queries from the old substrate.
func TestApplyDeltaIsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newDiffCorpus(t, rng, 10, 12, 4)
	cl, err := cluster.Build(c.g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	old, err := Build(Extract(c.g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Deep-freeze the old version's observable state.
	frozen, err := Build(Extract(c.g.Clone()), cl, nil)
	if err != nil {
		t.Fatal(err)
	}

	cur := old
	for i := 0; i < 20; i++ {
		muts := []graph.Mutation{c.randMutation(rng)}
		pre := c.g.ShallowClone()
		if err := c.g.ApplyAll(muts); err != nil {
			t.Fatal(err)
		}
		cur = cur.ApplyDelta(pre, muts)
	}
	assertSameLists(t, old, frozen, "pre-delta snapshot")
	if old.Version() != 0 || cur.Version() != 20 {
		t.Errorf("versions old=%d cur=%d, want 0 and 20", old.Version(), cur.Version())
	}
	// The old snapshot still answers queries from its frozen substrate.
	for _, u := range c.users[:3] {
		got := old.Data().ExactTopK(u, c.tags[:2], 5, old.UserFn(), scoring.SumG)
		want := frozen.Data().ExactTopK(u, c.tags[:2], 5, frozen.UserFn(), scoring.SumG)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("user %d: old snapshot answers %v, frozen %v", u, got, want)
		}
	}
}

// TestDifferentialIDReuseAfterRemoval is the regression case for id
// recycling on the mutation path. Before high-water-mark id tracking,
// graph.IDSourceFor seeded from the *present* maxima, so removing the
// max-id user and then allocating a fresh one handed the retracted id
// back out — and the incremental index, keyed by node id, would alias
// the newcomer with the departed user's half-retracted facts (duplicate
// refcounts, cluster membership) and silently diverge from a rebuild.
// The scenario: a late-arriving user takes the top of the id space, tags
// a few items, departs (recorded cascade), and a fresh user joins
// tagging the same items. Incremental must stay byte-identical to a
// from-scratch rebuild throughout, and the fresh id must not be the
// retracted one.
func TestDifferentialIDReuseAfterRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := newDiffCorpus(t, rng, 10, 14, 4)
	cl, err := cluster.Build(c.g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(Extract(c.g), cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(pre *graph.Graph, muts []graph.Mutation, ctx string) {
		t.Helper()
		ix = ix.ApplyDelta(pre, muts)
		assertSorted(t, ix, ctx)
		rebuilt, err := Build(Extract(c.g), ix.Clustering(), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameLists(t, ix, rebuilt, ctx)
	}

	// A newcomer claims the top of the node-id space and gets active.
	c.nextNode++
	maxUser := c.nextNode
	taggedItems := []graph.NodeID{c.items[0], c.items[3], c.items[7]}
	arrival := []graph.Mutation{
		{Kind: graph.MutAddNode, Node: graph.NewNode(maxUser, graph.TypeUser)},
	}
	{
		c.nextLink++
		l := graph.NewLink(c.nextLink, maxUser, c.users[0], graph.TypeConnect, graph.SubtypeFriend)
		arrival = append(arrival, graph.Mutation{Kind: graph.MutAddLink, Link: l})
	}
	for _, item := range taggedItems {
		arrival = append(arrival, graph.Mutation{Kind: graph.MutAddLink,
			Link: c.newTagLink(maxUser, item, c.tags[0])})
	}
	pre := c.g.ShallowClone()
	if err := c.g.ApplyAll(arrival); err != nil {
		t.Fatal(err)
	}
	step(pre, arrival, "max-user arrival")

	// The newcomer departs: recorded cascade (incident link removals, then
	// the node removal), exactly what a live engine's changelog carries.
	pre = c.g.ShallowClone()
	log := graph.RecordInto(c.g)
	c.g.RemoveNode(maxUser)
	c.g.SetRecorder(nil)
	step(pre, log.Drain(), "max-user removal")

	// Fresh-id allocation must not resurrect the retracted id.
	ids := graph.IDSourceFor(c.g)
	freshUser := ids.NextNode()
	if freshUser == maxUser {
		t.Fatalf("IDSource reused retracted node id %d", maxUser)
	}
	if freshUser <= maxUser {
		t.Fatalf("fresh user id %d not past high-water mark %d", freshUser, maxUser)
	}

	// The fresh user tags the same items with the same tag — the exact
	// shape that aliased under id reuse.
	rejoin := []graph.Mutation{
		{Kind: graph.MutAddNode, Node: graph.NewNode(freshUser, graph.TypeUser)},
	}
	{
		lid := ids.NextLink()
		l := graph.NewLink(lid, freshUser, c.users[1], graph.TypeConnect, graph.SubtypeFriend)
		rejoin = append(rejoin, graph.Mutation{Kind: graph.MutAddLink, Link: l})
	}
	for _, item := range taggedItems {
		lid := ids.NextLink()
		l := graph.NewLink(lid, freshUser, item, graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", c.tags[0])
		rejoin = append(rejoin, graph.Mutation{Kind: graph.MutAddLink, Link: l})
	}
	pre = c.g.ShallowClone()
	if err := c.g.ApplyAll(rejoin); err != nil {
		t.Fatal(err)
	}
	step(pre, rejoin, "fresh-user rejoin")

	// The departed user must be fully gone from the substrate; the fresh
	// one fully present.
	data := ix.Data()
	for _, u := range data.Users {
		if u == maxUser {
			t.Errorf("retracted user %d still in substrate universe", maxUser)
		}
	}
	if data.Network.Has(maxUser) {
		t.Errorf("retracted user %d still has a network entry", maxUser)
	}
	if !data.Network.Has(freshUser) {
		t.Errorf("fresh user %d missing from substrate", freshUser)
	}
	if got := data.ScoreTag(taggedItems[0], c.users[1], c.tags[0], ix.UserFn()); got < 1 {
		t.Errorf("fresh user's tagging invisible to their connection: score %v", got)
	}
}

// TestDifferentialMidBatchTaggings pins the two places ApplyDelta reads a
// user's taggings from when a connection changes or the user leaves: the
// batch's own tag links, and the graph as it stood before the batch. Each
// case leaves a stale posting or tagger behind when its source is missing.
func TestDifferentialMidBatchTaggings(t *testing.T) {
	const x, other, bystander, item graph.NodeID = 1, 2, 3, 10
	connect := []string{graph.TypeConnect, graph.SubtypeFriend}
	tag := []string{graph.TypeAct, graph.SubtypeTag}
	cases := []struct {
		name string
		muts func(g *graph.Graph, conn, tagged graph.LinkID) []graph.Mutation
	}{
		{"other tags Z, x-other disconnect, other untags Z", func(g *graph.Graph, conn, _ graph.LinkID) []graph.Mutation {
			z := graph.NewLink(g.MaxLinkID()+1, other, item, tag...)
			z.AddAttr("tags", "Z")
			return []graph.Mutation{
				{Kind: graph.MutAddLink, Link: z},
				{Kind: graph.MutRemoveLink, Link: g.Link(conn).Clone()},
				{Kind: graph.MutRemoveLink, Link: z.Clone()},
			}
		}},
		{"x-other disconnect, other untags standing Y", func(g *graph.Graph, conn, tagged graph.LinkID) []graph.Mutation {
			return []graph.Mutation{
				{Kind: graph.MutRemoveLink, Link: g.Link(conn).Clone()},
				{Kind: graph.MutRemoveLink, Link: g.Link(tagged).Clone()},
			}
		}},
		{"bare removal of a connected tagger", func(*graph.Graph, graph.LinkID, graph.LinkID) []graph.Mutation {
			return []graph.Mutation{{Kind: graph.MutRemoveNode, Node: graph.NewNode(other, graph.TypeUser)}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := graph.NewBuilder()
			for _, u := range []graph.NodeID{x, other, bystander} {
				b.NodeWithID(u, []string{graph.TypeUser})
			}
			b.NodeWithID(item, []string{graph.TypeItem})
			conn := b.Link(x, other, connect)
			b.Link(other, bystander, connect)
			tagged := b.Link(other, item, tag, "tags", "Y")
			g := b.Graph()
			cl, err := cluster.Build(g, cluster.PerUser, 0)
			if err != nil {
				t.Fatal(err)
			}
			ix, err := Build(Extract(g), cl, nil)
			if err != nil {
				t.Fatal(err)
			}
			muts := tc.muts(g, conn, tagged)
			pre := g.ShallowClone()
			if err := g.ApplyAll(muts); err != nil {
				t.Fatal(err)
			}
			ix = ix.ApplyDelta(pre, muts)
			rebuilt, err := Build(Extract(g), ix.Clustering(), nil)
			if err != nil {
				t.Fatal(err)
			}
			assertSameLists(t, ix, rebuilt, tc.name)
		})
	}
}
