// Package topk implements Fagin-style early-terminating top-k query
// processing over the activity-driven inverted lists of internal/index,
// completing the Section 6.2 pipeline: the index stores per-(cluster, tag)
// posting lists sorted by monotone score upper bounds (Equation 1), and
// this package turns those sorted lists into provably exact top-k answers
// while reading as few postings as possible.
//
// Three strategies are provided:
//
//   - Exhaustive scores every item of the corpus — the ground truth and
//     the baseline every optimization is measured against;
//   - TA is the threshold algorithm: round-robin sorted access over the
//     query's lists, immediate exact rescoring (random access) of every
//     newly seen item, termination once the k-th exact score strictly
//     exceeds the threshold g(frontier bounds);
//   - NRA is the no-random-access flavor: sorted access accumulates
//     per-candidate partial upper bounds and exact rescoring is deferred
//     until a candidate's upper bound still reaches the current k-th
//     score, so items whose bounds decay below the waterline are
//     discarded without ever being rescored.
//
// All three return byte-identical rankings (score descending, item id
// ascending, positive scores only) for any monotone f and g — the
// monotonicity contract documented in internal/scoring is exactly what
// makes the early-termination proofs go through. They differ only in how
// much work they do, which Stats makes observable.
package topk

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/scoring"
)

// ErrUnknownUser reports a query for a user the index's clustering does
// not know. A sentinel (matched with errors.Is) so serving layers can
// map it to a 404 without string inspection.
var ErrUnknownUser = errors.New("topk: unknown user")

// Strategy selects the query-processing algorithm.
type Strategy uint8

const (
	// Exhaustive scores every item (no index access).
	Exhaustive Strategy = iota
	// TA is the threshold algorithm with immediate random access.
	TA
	// NRA defers random access until a candidate's upper bound proves it
	// can still enter the top k.
	NRA
)

func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case TA:
		return "ta"
	case NRA:
		return "nra"
	}
	return "unknown"
}

// ParseStrategy maps a name back to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{Exhaustive, TA, NRA} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("topk: unknown strategy %q", name)
}

// Stats reports the work one top-k evaluation performed — the currency in
// which Section 6.2 prices index designs. For Exhaustive, PostingsScanned
// counts the (item, tag) score computations the full scan performs, so the
// three strategies are comparable in one unit.
type Stats struct {
	Strategy        Strategy
	PostingsScanned int  // sorted accesses: postings read across the query's lists
	ExactScores     int  // exact score_k computations (random accesses)
	Candidates      int  // distinct items met during sorted access
	Rounds          int  // round-robin sweeps over the lists
	EarlyTerminated bool // stopped before draining every list
	// SnapshotVersion is the index snapshot the evaluation read: 0 for a
	// fresh build, incremented by every index.ApplyDelta batch. On a live
	// engine it tells which version of the world answered the query.
	SnapshotVersion uint64
}

// Add folds another evaluation's counters into s (for aggregate reports).
// SnapshotVersion keeps the newest version observed.
func (s *Stats) Add(o Stats) {
	s.PostingsScanned += o.PostingsScanned
	s.ExactScores += o.ExactScores
	s.Candidates += o.Candidates
	s.Rounds += o.Rounds
	if o.EarlyTerminated {
		s.EarlyTerminated = true
	}
	if o.SnapshotVersion > s.SnapshotVersion {
		s.SnapshotVersion = o.SnapshotVersion
	}
}

// Processor answers top-k keyword queries against one index. It is
// stateless between calls and safe for concurrent use.
type Processor struct {
	ix *index.Index
	g  scoring.AggregateFn
}

// New builds a processor over the index with aggregate g (nil means the
// paper's g = sum). The per-keyword f is the one the index was built with.
func New(ix *index.Index, g scoring.AggregateFn) (*Processor, error) {
	if ix == nil {
		return nil, fmt.Errorf("topk: nil index")
	}
	if g == nil {
		g = scoring.SumG
	}
	return &Processor{ix: ix, g: g}, nil
}

// Index returns the underlying activity-driven index.
func (p *Processor) Index() *index.Index { return p.ix }

// cancelCheckEvery is how many accumulation-loop iterations pass between
// context checks: frequent enough that a request deadline bounds the scan
// within microseconds, sparse enough that the atomic load disappears
// against the posting work between checks.
const cancelCheckEvery = 256

// TopKCtx answers a keyword-only query: the k best items for the user
// under score(i, u) = g(score_k1(i,u), ..., score_kn(i,u)), ties broken
// by ascending item id, items scoring 0 excluded. Every strategy returns
// the identical ranking; they differ only in the Stats.
//
// The accumulation loops of every strategy poll ctx and abandon the
// evaluation with ctx.Err() once it is cancelled, so a serving layer's
// per-request deadline bounds even an exhaustive scan over a large
// corpus. Stats reflect the work actually performed up to the abort.
func (p *Processor) TopKCtx(ctx context.Context, user graph.NodeID, tags []string, k int,
	strategy Strategy) ([]index.Result, Stats, error) {
	stats := Stats{Strategy: strategy, SnapshotVersion: p.ix.Version()}
	if k <= 0 {
		return nil, stats, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	if p.ix.Clustering().Of(user) < 0 {
		return nil, stats, fmt.Errorf("%w %d", ErrUnknownUser, user)
	}
	var (
		results []index.Result
		err     error
	)
	switch strategy {
	case Exhaustive:
		results, err = p.exhaustive(ctx, user, tags, k, &stats)
	case TA:
		results, err = p.ta(ctx, user, tags, k, &stats)
	case NRA:
		results, err = p.nra(ctx, user, tags, k, &stats)
	default:
		err = fmt.Errorf("topk: unknown strategy %d", strategy)
	}
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// exhaustive is the full scan: every (item, tag) cell is computed.
func (p *Processor) exhaustive(ctx context.Context, user graph.NodeID, tags []string, k int,
	stats *Stats) ([]index.Result, error) {
	data := p.ix.Data()
	f := p.ix.UserFn()
	results := make([]index.Result, 0, len(data.Items))
	per := make([]float64, len(tags))
	for n, item := range data.Items {
		if n%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for i, tag := range tags {
			per[i] = data.ScoreTag(item, user, tag, f)
			stats.PostingsScanned++
			stats.ExactScores++
		}
		stats.Candidates++
		if s := p.g(per); s > 0 {
			results = append(results, index.Result{Item: item, Score: s})
		}
	}
	sortResults(results)
	if k < len(results) {
		results = results[:k]
	}
	return results, nil
}

// ta runs the threshold algorithm: sorted round-robin access, immediate
// exact rescoring of each item on first sight, and termination once the
// k-th exact score strictly exceeds the threshold assembled from the list
// frontiers. The strict comparison matters: at equality an unseen item
// could still tie the k-th score and win the ascending-id tie-break.
func (p *Processor) ta(ctx context.Context, user graph.NodeID, tags []string, k int,
	stats *Stats) ([]index.Result, error) {
	data := p.ix.Data()
	f := p.ix.UserFn()
	lists := make([][]index.Entry, len(tags))
	pos := make([]int, len(tags))
	for i, tag := range tags {
		lists[i] = p.ix.List(user, tag)
	}
	seen := make(map[graph.NodeID]struct{})
	frontiers := make([]float64, len(tags))
	var results []index.Result
	for {
		if stats.Rounds%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		advanced := false
		stats.Rounds++
		for i := range lists {
			if pos[i] >= len(lists[i]) {
				continue
			}
			e := lists[i][pos[i]]
			pos[i]++
			stats.PostingsScanned++
			advanced = true
			if _, dup := seen[e.Item]; dup {
				continue
			}
			seen[e.Item] = struct{}{}
			stats.Candidates++
			per := make([]float64, len(tags))
			for j, tag := range tags {
				per[j] = data.ScoreTag(e.Item, user, tag, f)
				stats.ExactScores++
			}
			if s := p.g(per); s > 0 {
				results = append(results, index.Result{Item: e.Item, Score: s})
			}
		}
		if !advanced {
			break
		}
		// Threshold: the best possible score of any item never seen yet.
		for i := range lists {
			if pos[i] < len(lists[i]) {
				frontiers[i] = lists[i][pos[i]].Score
			} else {
				frontiers[i] = 0
			}
		}
		if len(results) >= k {
			sortResults(results)
			// Bound the buffer: exact scores are final, so anything ranked
			// below 4k can never re-enter the top k.
			if len(results) > 4*k {
				results = results[:4*k]
			}
			if results[k-1].Score > p.g(frontiers) {
				stats.EarlyTerminated = anyRemaining(lists, pos)
				break
			}
		}
	}
	sortResults(results)
	if k < len(results) {
		results = results[:k]
	}
	return results, nil
}

// candidate is NRA bookkeeping for one item met during sorted access.
type candidate struct {
	item graph.NodeID
	// stored[i] is the upper bound read from list i, or -1 while unseen
	// there (the frontier substitutes during bound computation).
	stored []float64
	scored bool
}

// upperBound is the best score the candidate can still achieve: g over the
// stored bounds where seen and the list frontiers where not. Monotone f
// guarantees the stored value bounds the user's exact per-tag score; sorted
// lists guarantee the frontier bounds anything not yet read.
func (c *candidate) upperBound(g scoring.AggregateFn, frontiers []float64) float64 {
	per := make([]float64, len(c.stored))
	for i, s := range c.stored {
		if s >= 0 {
			per[i] = s
		} else {
			per[i] = frontiers[i]
		}
	}
	return g(per)
}

// nra runs the no-random-access flavor: sorted access only accumulates
// candidates and their partial upper bounds; exact rescoring is deferred
// and performed — in decreasing-bound order — only while some unscored
// candidate's upper bound still reaches the current k-th exact score.
// Candidates whose bounds decay below the waterline are discarded without
// a single random access, which is where NRA beats TA on rescoring work.
func (p *Processor) nra(ctx context.Context, user graph.NodeID, tags []string, k int,
	stats *Stats) ([]index.Result, error) {
	data := p.ix.Data()
	f := p.ix.UserFn()
	lists := make([][]index.Entry, len(tags))
	pos := make([]int, len(tags))
	for i, tag := range tags {
		lists[i] = p.ix.List(user, tag)
	}
	cands := make(map[graph.NodeID]*candidate)
	frontiers := make([]float64, len(tags))
	var results []index.Result

	rescore := func(c *candidate) {
		c.scored = true
		per := make([]float64, len(tags))
		for j, tag := range tags {
			per[j] = data.ScoreTag(c.item, user, tag, f)
			stats.ExactScores++
		}
		if s := p.g(per); s > 0 {
			results = append(results, index.Result{Item: c.item, Score: s})
		}
	}
	// bestUnscored picks the unscored candidate with the highest upper
	// bound, smallest item id on ties, so the rescoring order — and with
	// it the Stats — is deterministic.
	bestUnscored := func() (*candidate, float64) {
		var best *candidate
		bestUB := 0.0
		for _, c := range cands {
			if c.scored {
				continue
			}
			ub := c.upperBound(p.g, frontiers)
			if ub <= 0 {
				continue
			}
			if best == nil || ub > bestUB || (ub == bestUB && c.item < best.item) {
				best, bestUB = c, ub
			}
		}
		return best, bestUB
	}

	for {
		if stats.Rounds%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		advanced := false
		stats.Rounds++
		for i := range lists {
			if pos[i] >= len(lists[i]) {
				continue
			}
			e := lists[i][pos[i]]
			pos[i]++
			stats.PostingsScanned++
			advanced = true
			c, ok := cands[e.Item]
			if !ok {
				c = &candidate{item: e.Item, stored: make([]float64, len(tags))}
				for j := range c.stored {
					c.stored[j] = -1
				}
				cands[e.Item] = c
				stats.Candidates++
			}
			c.stored[i] = e.Score
		}
		for i := range lists {
			if pos[i] < len(lists[i]) {
				frontiers[i] = lists[i][pos[i]].Score
			} else {
				frontiers[i] = 0
			}
		}
		// Deferred random access, phase 1: keep just enough exact scores to
		// know a k-th score at all. Everything else stays a candidate.
		for len(results) < k {
			c, _ := bestUnscored()
			if c == nil {
				break
			}
			rescore(c)
		}
		// Phase 2: once the k-th exact score strictly beats the frontier
		// threshold, no fully-unseen item matters; drain the deferred
		// candidates that could still displace — or tie, winning the
		// ascending-id tie-break against — the current top k, and stop.
		// Candidates whose bounds decayed below the waterline are dropped
		// here without ever being rescored. Rescoring only raises the k-th
		// score, so the termination condition cannot be invalidated.
		if len(results) >= k {
			sortResults(results)
			kth := results[k-1].Score
			if kth > p.g(frontiers) {
				for {
					c, ub := bestUnscored()
					if c == nil || ub < kth {
						break
					}
					rescore(c)
					sortResults(results)
					kth = results[k-1].Score
				}
				stats.EarlyTerminated = anyRemaining(lists, pos)
				break
			}
		}
		if !advanced {
			// Lists drained without early termination — only possible with
			// fewer than k positive results, and phase 1 has then already
			// resolved every viable candidate.
			break
		}
	}
	sortResults(results)
	if k < len(results) {
		results = results[:k]
	}
	return results, nil
}

func anyRemaining(lists [][]index.Entry, pos []int) bool {
	for i := range lists {
		if pos[i] < len(lists[i]) {
			return true
		}
	}
	return false
}

func sortResults(rs []index.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].Item < rs[j].Item
	})
}
