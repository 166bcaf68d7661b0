// Package workload generates the synthetic substrates the experiments run
// on, standing in for the paper's proprietary data (the 10M Yahoo! Travel
// query log, the Y!Travel corpus, del.icio.us-scale tagging): small-world
// social graphs (Watts–Strogatz, the paper's reference [29]), Zipf-skewed
// tagging behaviour (Golder–Huberman shape, reference [19]), a travel
// domain corpus, and a query log drawn from Table 1's published class
// mixture. All generators are deterministic per seed.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"socialscope/internal/graph"
)

// SmallWorldConfig parameterizes a Watts–Strogatz friendship graph.
type SmallWorldConfig struct {
	Users  int     // ring size
	K      int     // each user connects to K nearest ring neighbors (even, ≥2)
	Rewire float64 // rewiring probability β in [0,1]
	Seed   int64
}

// SmallWorld adds `Users` user nodes to the builder and wires them into a
// Watts–Strogatz small world: a ring lattice with K neighbors per node,
// each edge rewired with probability β. It returns the user node ids.
func SmallWorld(b *graph.Builder, cfg SmallWorldConfig) ([]graph.NodeID, error) {
	if cfg.Users < 3 {
		return nil, fmt.Errorf("workload: small world needs ≥3 users, got %d", cfg.Users)
	}
	if cfg.K < 2 {
		cfg.K = 2
	}
	if cfg.K%2 != 0 {
		cfg.K++
	}
	if cfg.K >= cfg.Users {
		return nil, fmt.Errorf("workload: K=%d must be < Users=%d", cfg.K, cfg.Users)
	}
	if cfg.Rewire < 0 || cfg.Rewire > 1 {
		return nil, fmt.Errorf("workload: rewire probability %g outside [0,1]", cfg.Rewire)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	users := make([]graph.NodeID, cfg.Users)
	for i := range users {
		users[i] = b.Node([]string{graph.TypeUser}, "name", "user-"+strconv.Itoa(i))
	}
	type edge struct{ a, b int }
	seen := make(map[edge]struct{})
	addEdge := func(a, c int) {
		if a == c {
			return
		}
		if a > c {
			a, c = c, a
		}
		e := edge{a, c}
		if _, dup := seen[e]; dup {
			return
		}
		seen[e] = struct{}{}
		b.Link(users[a], users[c], []string{graph.TypeConnect, graph.SubtypeFriend})
	}
	n := cfg.Users
	for i := 0; i < n; i++ {
		for j := 1; j <= cfg.K/2; j++ {
			target := (i + j) % n
			if rng.Float64() < cfg.Rewire {
				// Rewire to a uniform random non-self node.
				target = rng.Intn(n)
				for target == i {
					target = rng.Intn(n)
				}
			}
			addEdge(i, target)
		}
	}
	return users, nil
}

// PreferentialAttachment adds `Users` user nodes wired by the
// Barabási–Albert process: each new node attaches to M existing nodes with
// probability proportional to degree, yielding the power-law connectivity
// observed on real social content sites.
func PreferentialAttachment(b *graph.Builder, users, m int, seed int64) ([]graph.NodeID, error) {
	if users < 2 || m < 1 {
		return nil, fmt.Errorf("workload: preferential attachment needs users ≥ 2, m ≥ 1")
	}
	if m >= users {
		m = users - 1
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]graph.NodeID, users)
	for i := range ids {
		ids[i] = b.Node([]string{graph.TypeUser}, "name", fmt.Sprintf("user-%d", i))
	}
	// Repeated-node list: picking uniformly from it is degree-proportional.
	var pool []int
	b.Link(ids[0], ids[1], []string{graph.TypeConnect, graph.SubtypeFriend})
	pool = append(pool, 0, 1)
	for i := 2; i < users; i++ {
		attach := make(map[int]struct{})
		limit := m
		if i < m {
			limit = i
		}
		for len(attach) < limit {
			var pick int
			if len(pool) == 0 || rng.Float64() < 0.1 {
				pick = rng.Intn(i)
			} else {
				pick = pool[rng.Intn(len(pool))]
			}
			if pick != i {
				attach[pick] = struct{}{}
			}
		}
		for p := range attach {
			b.Link(ids[i], ids[p], []string{graph.TypeConnect, graph.SubtypeFriend})
			pool = append(pool, i, p)
		}
	}
	return ids, nil
}
