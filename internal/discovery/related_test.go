package discovery

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"socialscope/internal/graph"
)

// relatedEntitiesOracle is RelatedEntities as first written — a set of
// result items per user and per topic — kept as the definition the merging
// version must reproduce.
func relatedEntitiesOracle(g *graph.Graph, msg *MSG, minActs, limit int) Related {
	if minActs <= 0 {
		minActs = 2
	}
	if limit <= 0 {
		limit = 5
	}
	inResults := make(map[graph.NodeID]struct{}, len(msg.Results))
	for _, r := range msg.Results {
		inResults[r.Item] = struct{}{}
	}
	exclude := map[graph.NodeID]struct{}{msg.User: {}}
	for _, b := range msg.Basis.Users {
		exclude[b] = struct{}{}
	}
	topicItems := make(map[graph.NodeID]map[graph.NodeID]struct{})
	userItems := make(map[graph.NodeID]map[graph.NodeID]struct{})
	for item := range inResults {
		for _, l := range g.Out(item) {
			if !l.HasType(graph.TypeBelong) {
				continue
			}
			set, ok := topicItems[l.Tgt]
			if !ok {
				set = make(map[graph.NodeID]struct{})
				topicItems[l.Tgt] = set
			}
			set[item] = struct{}{}
		}
		for _, l := range g.In(item) {
			if !l.HasType(graph.TypeAct) {
				continue
			}
			if _, skip := exclude[l.Src]; skip {
				continue
			}
			set, ok := userItems[l.Src]
			if !ok {
				set = make(map[graph.NodeID]struct{})
				userItems[l.Src] = set
			}
			set[item] = struct{}{}
		}
	}
	var rel Related
	for topic, items := range topicItems {
		rel.Topics = append(rel.Topics, RelatedTopic{topic, len(items)})
	}
	sort.Slice(rel.Topics, func(i, j int) bool {
		if rel.Topics[i].Count != rel.Topics[j].Count {
			return rel.Topics[i].Count > rel.Topics[j].Count
		}
		return rel.Topics[i].Topic < rel.Topics[j].Topic
	})
	if len(rel.Topics) > limit {
		rel.Topics = rel.Topics[:limit]
	}
	for user, items := range userItems {
		if len(items) >= minActs {
			rel.Users = append(rel.Users, RelatedUser{user, len(items)})
		}
	}
	sort.Slice(rel.Users, func(i, j int) bool {
		if rel.Users[i].Count != rel.Users[j].Count {
			return rel.Users[i].Count > rel.Users[j].Count
		}
		return rel.Users[i].User < rel.Users[j].User
	})
	if len(rel.Users) > limit {
		rel.Users = rel.Users[:limit]
	}
	return rel
}

// randomRelatedCase draws a graph dense in repeat act links (one user acting
// on one item several times, under several act subtypes), parallel belong
// links and non-act links, plus an MSG over it whose results repeat items
// and whose basis excludes some of the actors.
func randomRelatedCase(rng *rand.Rand) (*graph.Graph, *MSG) {
	linkTypes := [][]string{
		{graph.TypeAct, graph.SubtypeVisit}, {graph.TypeAct, graph.SubtypeTag},
		{graph.TypeAct, graph.SubtypeReview}, {graph.SubtypeVisit},
		{graph.TypeConnect, graph.SubtypeFriend}, {graph.TypeBelong},
	}
	b := graph.NewBuilder()
	users := make([]graph.NodeID, 4+rng.Intn(12))
	for i := range users {
		users[i] = b.Node([]string{graph.TypeUser})
	}
	items := make([]graph.NodeID, 3+rng.Intn(10))
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem, "destination"})
	}
	topics := make([]graph.NodeID, 1+rng.Intn(4))
	for i := range topics {
		topics[i] = b.Node([]string{graph.TypeTopic})
	}
	for m := len(users) * (2 + rng.Intn(6)); m > 0; m-- {
		u, it := users[rng.Intn(len(users))], items[rng.Intn(len(items))]
		for rep := 1 + rng.Intn(3); rep > 0; rep-- {
			b.Link(u, it, linkTypes[rng.Intn(len(linkTypes))])
		}
	}
	for _, it := range items {
		for n := rng.Intn(3); n > 0; n-- {
			b.Link(it, topics[rng.Intn(len(topics))], []string{graph.TypeBelong})
		}
	}
	msg := &MSG{User: users[0]}
	for _, u := range users[1:] {
		if rng.Intn(3) == 0 {
			msg.Basis.Users = append(msg.Basis.Users, u)
		}
	}
	for n := rng.Intn(len(items) + 3); n > 0; n-- {
		msg.Results = append(msg.Results, Result{Item: items[rng.Intn(len(items))]})
	}
	return b.Graph(), msg
}

func TestRelatedEntitiesMatchesSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	nonEmpty := 0
	for i := 0; i < seeds; i++ {
		g, msg := randomRelatedCase(rng)
		for _, minActs := range []int{0, 1, 2, 3} {
			for _, limit := range []int{0, 1, 3, 100} {
				got := RelatedEntities(g, msg, minActs, limit)
				want := relatedEntitiesOracle(g, msg, minActs, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d minActs %d limit %d:\n got %+v\nwant %+v", i, minActs, limit, got, want)
				}
				if len(got.Users) > 0 {
					nonEmpty++
				}
			}
		}
	}
	// Guard against a generator that stops producing related users.
	if nonEmpty < seeds {
		t.Errorf("only %d of %d cases surface a related user", nonEmpty, 16*seeds)
	}
}

// TestRelatedEntitiesWide holds RelatedEntities to the set oracle over
// 240 results, beyond the balanced merge's shallow trees: 400 users act
// on 1 to 7 random items each, with repeats, so every cut falls inside a
// run of tied counts.
func TestRelatedEntitiesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	b := graph.NewBuilder()
	searcher := b.Node([]string{graph.TypeUser})
	items := make([]graph.NodeID, 240)
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem})
	}
	msg := &MSG{User: searcher}
	for i := 0; i < 400; i++ {
		u := b.Node([]string{graph.TypeUser})
		for _, j := range rng.Perm(len(items))[:1+i%7] {
			for rep := 1 + rng.Intn(2); rep > 0; rep-- {
				b.Link(u, items[j], []string{graph.TypeAct, graph.SubtypeVisit})
			}
		}
		if i%50 == 0 {
			msg.Basis.Users = append(msg.Basis.Users, u)
		}
	}
	g := b.Graph()
	for _, it := range items {
		msg.Results = append(msg.Results, Result{Item: it})
	}
	all := relatedEntitiesOracle(g, msg, 1, len(items)*400).Users
	for _, limit := range []int{1, 5, 40, 100} {
		if all[limit-1].Count != all[limit].Count {
			t.Fatalf("limit %d does not cut a tie", limit)
		}
		for _, minActs := range []int{1, 2, 7} {
			got := RelatedEntities(g, msg, minActs, limit)
			if want := relatedEntitiesOracle(g, msg, minActs, limit); !reflect.DeepEqual(got, want) {
				t.Fatalf("minActs %d limit %d:\n got %+v\nwant %+v", minActs, limit, got, want)
			}
		}
	}
}

// TestRelatedEntitiesConcurrent: calls share the pooled counting space, so
// concurrent calls over different graphs must each match the oracle.
func TestRelatedEntitiesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				g, msg := randomRelatedCase(rng)
				if got, want := RelatedEntities(g, msg, 2, 3), relatedEntitiesOracle(g, msg, 2, 3); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d case %d:\n got %+v\nwant %+v", seed, i, got, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestRelatedUsersAtTheCut: RelatedEntities keeps the best limit users
// while it scans the merged counts instead of sorting them all. Counts by
// user id ascending are 1, 2, 3, 2, 2, 3, so limit 3 cuts inside a tie,
// limit 1 keeps one of two tied leaders, and a later, higher count must
// displace earlier, lower ones.
func TestRelatedUsersAtTheCut(t *testing.T) {
	b := graph.NewBuilder()
	searcher := b.Node([]string{graph.TypeUser})
	items := make([]graph.NodeID, 3)
	for i := range items {
		items[i] = b.Node([]string{graph.TypeItem})
	}
	var users []graph.NodeID
	for _, n := range []int{1, 2, 3, 2, 2, 3} {
		u := b.Node([]string{graph.TypeUser})
		users = append(users, u)
		for _, it := range items[:n] {
			b.Link(u, it, []string{graph.TypeAct, graph.SubtypeVisit})
		}
	}
	g := b.Graph()
	msg := &MSG{User: searcher}
	for _, it := range items {
		msg.Results = append(msg.Results, Result{Item: it})
	}
	for _, c := range []struct {
		minActs, limit int
		want           []RelatedUser
	}{
		{1, 3, []RelatedUser{{users[2], 3}, {users[5], 3}, {users[1], 2}}}, // ties at the cut
		{1, 1, []RelatedUser{{users[2], 3}}},
		{3, 5, []RelatedUser{{users[2], 3}, {users[5], 3}}}, // fewer candidates than limit
		{1, 100, []RelatedUser{{users[2], 3}, {users[5], 3}, {users[1], 2}, {users[3], 2}, {users[4], 2}, {users[0], 1}}},
		{4, 5, nil}, // no candidates
	} {
		got := RelatedEntities(g, msg, c.minActs, c.limit)
		if want := relatedEntitiesOracle(g, msg, c.minActs, c.limit); !reflect.DeepEqual(got, want) {
			t.Fatalf("minActs %d limit %d:\n got %+v\nwant %+v (oracle)", c.minActs, c.limit, got, want)
		}
		if !reflect.DeepEqual(got.Users, c.want) {
			t.Fatalf("minActs %d limit %d: users %+v, want %+v", c.minActs, c.limit, got.Users, c.want)
		}
	}
}

// TestRelatedTopicCountsResultsOnce: a topic counts the results belonging
// to it, so two parallel belong links from one result count once.
func TestRelatedTopicCountsResultsOnce(t *testing.T) {
	b := graph.NewBuilder()
	user := b.Node([]string{graph.TypeUser})
	item := b.Node([]string{graph.TypeItem})
	other := b.Node([]string{graph.TypeItem})
	topic := b.Node([]string{graph.TypeTopic})
	b.Link(item, topic, []string{graph.TypeBelong})
	b.Link(item, topic, []string{graph.TypeBelong})
	msg := &MSG{User: user, Results: []Result{{Item: item}, {Item: item}}}
	rel := RelatedEntities(b.Graph(), msg, 0, 0)
	if want := []RelatedTopic{{topic, 1}}; !reflect.DeepEqual(rel.Topics, want) {
		t.Fatalf("topics = %+v, want %+v", rel.Topics, want)
	}
	b.Link(other, topic, []string{graph.TypeBelong})
	msg.Results = append(msg.Results, Result{Item: other})
	if got := RelatedEntities(b.Graph(), msg, 0, 0).Topics; !reflect.DeepEqual(got, []RelatedTopic{{topic, 2}}) {
		t.Fatalf("topics = %+v, want one topic counting 2 results", got)
	}
}

// TestRelatedEntitiesExtremeIDs: ids are client-chosen through /apply, so
// act links from users with ids near 1<<62 and below zero must count like
// any others, and the bytes a call allocates must not grow with the
// graph's MaxNodeID. The same act pattern is built twice, once with small
// user ids and once with ids at the extremes, and both must match the set
// oracle with the same allocations per call, up to a dropped pool entry.
func TestRelatedEntitiesExtremeIDs(t *testing.T) {
	build := func(userID func(i int) graph.NodeID) (*graph.Graph, *MSG) {
		rng := rand.New(rand.NewSource(62))
		b := graph.NewBuilder()
		searcher := b.NodeWithID(1, []string{graph.TypeUser})
		items := make([]graph.NodeID, 8)
		for i := range items {
			items[i] = b.NodeWithID(graph.NodeID(10+i), []string{graph.TypeItem})
		}
		msg := &MSG{User: searcher}
		for i := 0; i < 64; i++ {
			u := b.NodeWithID(userID(i), []string{graph.TypeUser})
			for _, j := range rng.Perm(len(items))[:1+rng.Intn(4)] {
				b.Link(u, items[j], []string{graph.TypeAct, graph.SubtypeVisit})
			}
			if i%16 == 0 {
				msg.Basis.Users = append(msg.Basis.Users, u)
			}
		}
		for _, it := range items {
			msg.Results = append(msg.Results, Result{Item: it})
		}
		return b.Graph(), msg
	}
	small, smallMSG := build(func(i int) graph.NodeID { return graph.NodeID(100 + i) })
	extreme, extremeMSG := build(func(i int) graph.NodeID {
		if i%2 == 0 {
			return graph.NodeID(1<<62 - i)
		}
		return graph.NodeID(-1 - i*(1<<40))
	})
	if extreme.MaxNodeID() < 1<<61 {
		t.Fatalf("MaxNodeID %d, want the extreme ids in the graph", extreme.MaxNodeID())
	}
	perCall := func(g *graph.Graph, msg *MSG) (allocs, bytes float64) {
		const runs = 64
		call := func() { RelatedEntities(g, msg, 2, 5) }
		allocs = testing.AllocsPerRun(runs, call)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		msg  *MSG
	}{{"small ids", small, smallMSG}, {"extreme ids", extreme, extremeMSG}} {
		got, want := RelatedEntities(c.g, c.msg, 2, 5), relatedEntitiesOracle(c.g, c.msg, 2, 5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
		if len(got.Users) == 0 {
			t.Fatalf("%s: no related users", c.name)
		}
	}
	smallAllocs, smallBytes := perCall(small, smallMSG)
	extremeAllocs, extremeBytes := perCall(extreme, extremeMSG)
	t.Logf("per call: small ids %.0f allocs %.0f B, extreme ids %.0f allocs %.0f B",
		smallAllocs, smallBytes, extremeAllocs, extremeBytes)
	// The pool may drop the counting scratch (after a GC, and at random
	// under the race detector), and a call then allocates a fresh set;
	// the slack covers that, orders of magnitude below anything that
	// grows with ids near 1<<62.
	if extremeAllocs > smallAllocs+4 || extremeBytes > 2*smallBytes+4096 {
		t.Errorf("extreme ids allocate %.0f times and %.0f B per call, small ids %.0f and %.0f B",
			extremeAllocs, extremeBytes, smallAllocs, smallBytes)
	}
}
