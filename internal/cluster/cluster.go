// Package cluster implements the user clustering strategies of Section 6.2:
// network-based (Definition 11), behavior-based (Definition 12) and hybrid
// (Definition 13). Clustering trades index space for query-time work in the
// activity-driven indexes of internal/index: one inverted list per cluster
// instead of one per user, with score upper bounds per Equation 1.
//
// The definitions specify pairwise predicates; materializing them into a
// partition ("each user falls into a single cluster") uses leader
// clustering: users are scanned in id order, joining the first cluster
// whose leader satisfies the predicate, else founding a new cluster. Leader
// clustering is deterministic, single-pass, and the standard way [5]'s
// strategies are realized.
package cluster

import (
	"fmt"

	"socialscope/internal/graph"
	"socialscope/internal/persist"
)

// Strategy selects the clustering predicate.
type Strategy uint8

const (
	// PerUser puts every user in a singleton cluster (the straightforward
	// one-inverted-list-per-(tag,user) baseline of Section 6.2).
	PerUser Strategy = iota
	// NetworkBased clusters users whose networks overlap: Definition 11.
	NetworkBased
	// BehaviorBased clusters users whose acted-on items (the targets of
	// their act links) overlap: Definition 12.
	BehaviorBased
	// Hybrid clusters users whose network members tag similarly: Definition 13.
	Hybrid
	// Global puts every user in one cluster (the network-oblivious
	// baseline; equivalent to classic IR inverted lists).
	Global
)

func (s Strategy) String() string {
	switch s {
	case PerUser:
		return "peruser"
	case NetworkBased:
		return "network"
	case BehaviorBased:
		return "behavior"
	case Hybrid:
		return "hybrid"
	case Global:
		return "global"
	}
	return "unknown"
}

// ParseStrategy maps a name back to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{PerUser, NetworkBased, BehaviorBased, Hybrid, Global} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown strategy %q", name)
}

// Cluster is one user group.
type Cluster struct {
	ID      int
	Leader  graph.NodeID
	Members []graph.NodeID
}

// Clustering is a partition of the users.
type Clustering struct {
	Strategy Strategy
	Theta    float64
	Clusters []Cluster
	byUser   map[graph.NodeID]int
}

// Of returns the cluster id of a user (-1 when the user is unknown).
func (c *Clustering) Of(u graph.NodeID) int {
	if id, ok := c.byUser[u]; ok {
		return id
	}
	return -1
}

// Members returns the member list of a cluster id (nil when out of range).
func (c *Clustering) Members(id int) []graph.NodeID {
	if id < 0 || id >= len(c.Clusters) {
		return nil
	}
	return c.Clusters[id].Members
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Clusters) }

// WithUser returns a clustering extended with a user who arrived after the
// partition was built, leaving the receiver untouched (copy-on-write, so
// index snapshots sharing the old partition stay consistent). Placement is
// the cheapest sound policy per strategy: Global joins the one cluster,
// every other strategy founds a singleton — exact for PerUser, and for the
// leader-based strategies the conservative choice until the Data Manager's
// next re-clustering (Section 6.2 separates index maintenance from cluster
// maintenance). Known users return the receiver unchanged.
func (c *Clustering) WithUser(u graph.NodeID) *Clustering {
	if _, ok := c.byUser[u]; ok {
		return c
	}
	n := &Clustering{Strategy: c.Strategy, Theta: c.Theta, byUser: make(map[graph.NodeID]int, len(c.byUser)+1)}
	for k, v := range c.byUser {
		n.byUser[k] = v
	}
	n.Clusters = append([]Cluster(nil), c.Clusters...)
	if c.Strategy == Global && len(n.Clusters) > 0 {
		cl := &n.Clusters[0]
		cl.Members = append(append([]graph.NodeID(nil), cl.Members...), u)
		n.byUser[u] = 0
		return n
	}
	id := len(n.Clusters)
	n.Clusters = append(n.Clusters, Cluster{ID: id, Leader: u, Members: []graph.NodeID{u}})
	n.byUser[u] = id
	return n
}

// Stats summarizes the partition.
type Stats struct {
	Strategy   Strategy
	Theta      float64
	Users      int
	Clusters   int
	Singletons int
	MaxSize    int
	AvgSize    float64
}

// Stats computes summary statistics of the clustering.
func (c *Clustering) Stats() Stats {
	s := Stats{Strategy: c.Strategy, Theta: c.Theta, Clusters: len(c.Clusters)}
	for _, cl := range c.Clusters {
		n := len(cl.Members)
		s.Users += n
		if n == 1 {
			s.Singletons++
		}
		if n > s.MaxSize {
			s.MaxSize = n
		}
	}
	if s.Clusters > 0 {
		s.AvgSize = float64(s.Users) / float64(s.Clusters)
	}
	return s
}

// Build partitions the users of g under the given strategy and threshold θ.
// network(u) is g.Connections(u) and items(u) is g.Acts(u), each derived
// once per user per Build; a non-user reached through a connection has no
// items. θ is ignored by PerUser and Global.
func Build(g *graph.Graph, strategy Strategy, theta float64) (*Clustering, error) {
	if theta < 0 || theta > 1 {
		return nil, fmt.Errorf("cluster: theta %g outside [0,1]", theta)
	}
	var users []graph.NodeID
	for _, n := range g.NodesOfType(graph.TypeUser) {
		users = append(users, n.ID)
	}
	c := &Clustering{Strategy: strategy, Theta: theta, byUser: make(map[graph.NodeID]int)}
	switch strategy {
	case Global:
		if len(users) > 0 {
			cl := Cluster{ID: 0, Leader: users[0], Members: users}
			c.Clusters = append(c.Clusters, cl)
			for _, u := range users {
				c.byUser[u] = 0
			}
		}
		return c, nil
	case PerUser:
		for i, u := range users {
			c.Clusters = append(c.Clusters, Cluster{ID: i, Leader: u, Members: []graph.NodeID{u}})
			c.byUser[u] = i
		}
		return c, nil
	case NetworkBased, BehaviorBased, Hybrid:
		pred := predicate(g, users, strategy, theta)
		for _, u := range users {
			placed := false
			for i := range c.Clusters {
				if pred(c.Clusters[i].Leader, u) {
					c.Clusters[i].Members = append(c.Clusters[i].Members, u)
					c.byUser[u] = i
					placed = true
					break
				}
			}
			if !placed {
				id := len(c.Clusters)
				c.Clusters = append(c.Clusters, Cluster{ID: id, Leader: u, Members: []graph.NodeID{u}})
				c.byUser[u] = id
			}
		}
		return c, nil
	}
	return nil, fmt.Errorf("cluster: unknown strategy %d", strategy)
}

// predicate returns the pairwise test of a leader-based strategy over
// users, reading each fact it needs once per user up front.
func predicate(g *graph.Graph, users []graph.NodeID, strategy Strategy, theta float64) func(a, b graph.NodeID) bool {
	facts := func(of func(graph.NodeID) []graph.NodeID) map[graph.NodeID][]graph.NodeID {
		m := make(map[graph.NodeID][]graph.NodeID, len(users))
		for _, u := range users {
			m[u] = of(u)
		}
		return m
	}
	switch strategy {
	case NetworkBased:
		// |network(u1) ∩ network(u2)| / |network(u1) ∪ network(u2)| ≥ θ.
		network := facts(g.Connections)
		return func(a, b graph.NodeID) bool {
			return persist.Jaccard(network[a], network[b]) >= theta
		}
	case BehaviorBased:
		// |items(u1) ∩ items(u2)| / |items(u1) ∪ items(u2)| ≥ θ.
		items := facts(g.Acts)
		return func(a, b graph.NodeID) bool {
			return persist.Jaccard(items[a], items[b]) >= theta
		}
	}
	// Definition 13: items(v1)~items(v2) ≥ θ for ALL v1 ∈ network(u1),
	// v2 ∈ network(u2). Vacuously false when either network is empty (an
	// empty-network user clusters with nobody but itself). items holds
	// users only, so a non-user member of a network reads as no items.
	network, items := facts(g.Connections), facts(g.Acts)
	return func(a, b graph.NodeID) bool {
		na, nb := network[a], network[b]
		if len(na) == 0 || len(nb) == 0 {
			return false
		}
		for _, v1 := range na {
			for _, v2 := range nb {
				if persist.Jaccard(items[v1], items[v2]) < theta {
					return false
				}
			}
		}
		return true
	}
}
