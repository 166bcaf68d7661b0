package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"socialscope/internal/graph"
)

// TaggingStream generates an endless stream of fresh tagging mutations
// (user tags item) against a site graph — the write side of a mixed
// serving workload. Link ids are allocated past the graph's high-water
// mark and never reused, so every batch is acceptable to Engine.Apply.
// Safe for concurrent use.
type TaggingStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	users []graph.NodeID
	items []graph.NodeID
	tags  []string
	next  graph.LinkID
}

// NewTaggingStream returns a stream drawing users, items and tags
// uniformly, with ids starting after g's high-water mark.
func NewTaggingStream(g *graph.Graph, users, items []graph.NodeID, tags []string,
	seed int64) (*TaggingStream, error) {
	if len(users) == 0 || len(items) == 0 || len(tags) == 0 {
		return nil, fmt.Errorf("workload: tagging stream needs users, items and tags")
	}
	return &TaggingStream{
		rng:   rand.New(rand.NewSource(seed)),
		users: users,
		items: items,
		tags:  tags,
		next:  g.MaxLinkID(),
	}, nil
}

// Batch returns n fresh tagging mutations.
func (s *TaggingStream) Batch(n int) []graph.Mutation {
	s.mu.Lock()
	defer s.mu.Unlock()
	muts := make([]graph.Mutation, n)
	for i := range muts {
		s.next++
		u := s.users[s.rng.Intn(len(s.users))]
		d := s.items[s.rng.Intn(len(s.items))]
		tag := s.tags[s.rng.Intn(len(s.tags))]
		l := graph.NewLink(s.next, u, d, graph.TypeAct, graph.SubtypeTag)
		l.AddAttr("tags", tag)
		muts[i] = graph.Mutation{Kind: graph.MutAddLink, Link: l}
	}
	return muts
}
