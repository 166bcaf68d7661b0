package discovery

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"socialscope/internal/graph"
)

// relatedEntitiesOracle is RelatedEntities as first written — a set of
// result items per user — kept as the definition the counting version must
// reproduce.
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
	topicCounts := make(map[graph.NodeID]int)
	userItems := make(map[graph.NodeID]map[graph.NodeID]struct{})
	for item := range inResults {
		for _, l := range g.Out(item) {
			if l.HasType(graph.TypeBelong) {
				topicCounts[l.Tgt]++
			}
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
	for topic, n := range topicCounts {
		rel.Topics = append(rel.Topics, RelatedTopic{topic, n})
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
// on one item several times, under several act subtypes), belong links and
// non-act links, plus an MSG over it whose results repeat items and whose
// basis excludes some of the actors.
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
