package index

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"socialscope/internal/cluster"
	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

func TestAddTaggingUpdatesSubstrate(t *testing.T) {
	g := tagFixture(t)
	d := Extract(g)
	// User 1 (network {2,3}) tags item 13 with a brand-new tag.
	affected := d.AddTagging(1, 13, "newtag")
	if !reflect.DeepEqual(affected, []graph.NodeID{2, 3}) {
		t.Errorf("affected = %v, want [2 3]", affected)
	}
	if !has(d.Taggers.At("newtag").At(13), 1) {
		t.Error("tagger not recorded")
	}
	if !slices.Contains(d.Items, 13) {
		t.Error("item universe not extended")
	}
	found := false
	for _, tag := range d.Tags {
		if tag == "newtag" {
			found = true
		}
	}
	if !found {
		t.Error("tag universe not extended")
	}
	// Duplicate action changes nothing.
	if dup := d.AddTagging(1, 13, "newtag"); dup != nil {
		t.Errorf("duplicate tagging affected %v", dup)
	}
	// Score visible: user 2's network contains 1, who tagged 13.
	if got := d.ScoreTag(13, 2, "newtag", scoring.CountF); got != 1 {
		t.Errorf("score after update = %f", got)
	}
}

func TestApplyTaggingMatchesRebuild(t *testing.T) {
	for _, s := range []cluster.Strategy{cluster.PerUser, cluster.NetworkBased, cluster.Global} {
		g := tagFixture(t)
		d := Extract(g)
		cl, err := cluster.Build(g, s, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(d, cl, scoring.CountF)
		if err != nil {
			t.Fatal(err)
		}
		// Apply a series of new actions incrementally.
		actions := []struct {
			user, item graph.NodeID
			tag        string
		}{
			{1, 13, "go"}, {2, 12, "db"}, {4, 11, "db"}, {3, 13, "go"},
		}
		for _, a := range actions {
			affected := d.AddTagging(a.user, a.item, a.tag)
			if err := ix.ApplyTagging(a.user, a.item, a.tag, affected); err != nil {
				t.Fatal(err)
			}
		}
		// Rebuild from the updated substrate: lists must agree.
		rebuilt, err := Build(d, cl, scoring.CountF)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range d.Users {
			for _, tag := range d.Tags {
				got, want := ix.List(u, tag), rebuilt.List(u, tag)
				if len(got) != len(want) {
					t.Fatalf("%s: list (%d,%s) length %d vs rebuild %d",
						s, u, tag, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s: list (%d,%s)[%d] = %v, rebuild %v",
							s, u, tag, i, got[i], want[i])
					}
				}
			}
		}
		if ix.EntryCount() != rebuilt.EntryCount() {
			t.Errorf("%s: entry count %d vs rebuild %d", s, ix.EntryCount(), rebuilt.EntryCount())
		}
	}
}

// TestApplyTaggingDoesNotCorruptSnapshots pins the interaction between
// the legacy single-writer API and the copy-on-write snapshot lineage: a
// child produced by ApplyDelta shares inner structures with its parent,
// so ApplyTagging/AddTagging on the parent must replace the touched
// structures, never mutate them, or the child's answers change underneath
// its readers.
func TestApplyTaggingDoesNotCorruptSnapshots(t *testing.T) {
	g := tagFixture(t)
	d := Extract(g)
	cl, err := cluster.Build(g, cluster.NetworkBased, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := Build(d, cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	child := parent.ApplyDelta(nil) // shares every list and set with parent

	type frozenList struct {
		cluster int
		tag     string
		entries []Entry
	}
	freeze := func(ix *Index) []frozenList {
		var out []frozenList
		ix.ForEachList(func(cl int, tag string, l []Entry) {
			out = append(out, frozenList{cl, tag, append([]Entry(nil), l...)})
		})
		return out
	}
	want := freeze(child)
	childScore := child.Data().ScoreTag(13, 2, "go", scoring.CountF)

	// Mutate the parent through the legacy in-place path.
	for _, a := range []struct {
		user, item graph.NodeID
		tag        string
	}{{1, 13, "go"}, {2, 12, "db"}, {3, 13, "go"}} {
		affected := d.AddTagging(a.user, a.item, a.tag)
		if err := parent.ApplyTagging(a.user, a.item, a.tag, affected); err != nil {
			t.Fatal(err)
		}
	}

	if got := freeze(child); !reflect.DeepEqual(got, want) {
		t.Fatalf("parent ApplyTagging corrupted the child snapshot\n got %v\nwant %v", got, want)
	}
	if got := child.Data().ScoreTag(13, 2, "go", scoring.CountF); got != childScore {
		t.Errorf("child substrate changed: score %v, was %v", got, childScore)
	}
}

// TestApplyDeltaOnHandBuiltData pins the fallback path: Data constructed
// by hand (no tag profiles) must survive every mutation kind through
// ApplyDelta — in particular addUser, which populates the lazily created
// profile maps — with the full-vocabulary scan standing in for missing
// per-user tag profiles.
func TestApplyDeltaOnHandBuiltData(t *testing.T) {
	d := NewData()
	d.Users = []graph.NodeID{1, 2}
	d.Items = []graph.NodeID{10}
	d.Tags = []string{"go"}
	d.Taggers = d.Taggers.Set("go", NewItemTaggers().Set(10, []graph.NodeID{1}))
	d.Network = d.Network.Set(1, []graph.NodeID{2})
	d.Network = d.Network.Set(2, []graph.NodeID{1})
	d.ItemsOf = d.ItemsOf.Set(1, []graph.NodeID{10})
	d.ItemsOf = d.ItemsOf.Set(2, nil)
	cl, err := cluster.BuildFromProfiles(d.Users, nil, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	newUser := graph.NewNode(3, graph.TypeUser)
	conn := graph.NewLink(1, 3, 1, graph.TypeConnect)
	tagLink := graph.NewLink(2, 3, 10, graph.TypeAct, graph.SubtypeTag)
	tagLink.Attrs.Add("tags", "go")
	ix = ix.ApplyDelta([]graph.Mutation{
		{Kind: graph.MutAddNode, Node: newUser},
		{Kind: graph.MutAddLink, Link: conn},
		{Kind: graph.MutAddLink, Link: tagLink},
		{Kind: graph.MutRemoveLink, Link: tagLink.Clone()},
	})
	// After add+retract of user 3's tagging, user 1 scores item 10 only
	// through their own original tagging's visibility.
	if got := ix.Data().ScoreTag(10, 3, "go", scoring.CountF); got != 1 {
		t.Errorf("new user's score = %v, want 1 (sees user 1's tagging)", got)
	}
	if l := ix.List(3, "go"); len(l) != 1 || l[0].Item != 10 {
		t.Errorf("new user's list = %v, want one entry for item 10", l)
	}
}

func TestApplyTaggingRequiresSubstrateUpdate(t *testing.T) {
	g := tagFixture(t)
	d := Extract(g)
	cl, err := cluster.Build(g, cluster.PerUser, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(d, cl, scoring.CountF)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.ApplyTagging(1, 13, "never-added", []graph.NodeID{2}); err == nil {
		t.Error("ApplyTagging without AddTagging accepted")
	}
}

// Property: a stream of random incremental updates leaves the index
// identical to a fresh rebuild, and top-k answers identical to brute
// force.
func TestQuickIncrementalEqualsRebuild(t *testing.T) {
	f := func(seed int64) bool {
		g := randomTagGraph(seed, 8, 10, 3)
		d := Extract(g)
		cl, err := cluster.Build(g, cluster.NetworkBased, 0.4)
		if err != nil {
			return false
		}
		ix, err := Build(d, cl, scoring.CountF)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		tags := []string{"a", "b", "z"}
		for i := 0; i < 12; i++ {
			u := d.Users[rng.Intn(len(d.Users))]
			it := d.Items[rng.Intn(len(d.Items))]
			tag := tags[rng.Intn(len(tags))]
			affected := d.AddTagging(u, it, tag)
			if err := ix.ApplyTagging(u, it, tag, affected); err != nil {
				return false
			}
		}
		rebuilt, err := Build(d, cl, scoring.CountF)
		if err != nil {
			return false
		}
		if ix.EntryCount() != rebuilt.EntryCount() {
			return false
		}
		for _, u := range d.Users {
			for _, tag := range d.Tags {
				a, b := ix.List(u, tag), rebuilt.List(u, tag)
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
			want := d.ExactTopK(u, d.Tags, 3, scoring.CountF, scoring.SumG)
			got, _, err := ix.TopK(u, d.Tags, 3, scoring.SumG)
			if err != nil || !sameResults(want, got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
