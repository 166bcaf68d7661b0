package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"socialscope/internal/graph"
)

// Latencies collects operation latencies and reports percentiles — the
// currency of the serving experiments (p50/p99 under load). Not safe
// for concurrent use; give each worker its own and Merge afterwards.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Merge folds another collection into l.
func (l *Latencies) Merge(o *Latencies) {
	l.samples = append(l.samples, o.samples...)
	l.sorted = false
}

// Len returns the sample count.
func (l *Latencies) Len() int { return len(l.samples) }

// P returns the q-quantile (0 < q <= 1) by nearest-rank over the sorted
// samples, 0 when empty.
func (l *Latencies) P(q float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
	idx := int(math.Ceil(q*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Mean returns the arithmetic mean, 0 when empty.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.samples {
		sum += d
	}
	return sum / time.Duration(len(l.samples))
}

// ClosedLoopResult aggregates one closed-loop run: wall time, per-class
// op counts and latency distributions.
type ClosedLoopResult struct {
	Wall     time.Duration
	Reads    int
	Writes   int
	Errors   int
	ReadLat  *Latencies
	WriteLat *Latencies
}

// Throughput returns completed operations per second.
func (r ClosedLoopResult) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Reads+r.Writes) / r.Wall.Seconds()
}

// ClosedLoop drives a closed-loop workload: workers goroutines each
// perform opsPerWorker operations back-to-back — the next op issues only
// when the previous one returns, so offered load self-regulates with
// server latency (the standard closed-loop model for saturation
// studies). do performs one operation and reports whether it was a read
// and whether it failed; each worker gets a private deterministic rng
// derived from seed. Latencies are recorded around do.
func ClosedLoop(workers, opsPerWorker int, seed int64,
	do func(worker, i int, rng *rand.Rand) (read bool, err error)) (ClosedLoopResult, error) {
	if workers <= 0 || opsPerWorker <= 0 {
		return ClosedLoopResult{}, fmt.Errorf("workload: closed loop needs positive workers and ops")
	}
	type workerResult struct {
		reads, writes, errors int
		readLat, writeLat     *Latencies
	}
	results := make([]workerResult, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			res := workerResult{readLat: &Latencies{}, writeLat: &Latencies{}}
			for i := 0; i < opsPerWorker; i++ {
				opStart := time.Now()
				read, err := do(w, i, rng)
				lat := time.Since(opStart)
				if err != nil {
					res.errors++
					continue
				}
				if read {
					res.reads++
					res.readLat.Add(lat)
				} else {
					res.writes++
					res.writeLat.Add(lat)
				}
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	out := ClosedLoopResult{
		Wall:     time.Since(start),
		ReadLat:  &Latencies{},
		WriteLat: &Latencies{},
	}
	for _, res := range results {
		out.Reads += res.reads
		out.Writes += res.writes
		out.Errors += res.errors
		if res.readLat != nil {
			out.ReadLat.Merge(res.readLat)
		}
		if res.writeLat != nil {
			out.WriteLat.Merge(res.writeLat)
		}
	}
	return out, nil
}

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
