package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/obs"
	"socialscope/internal/workload"
)

func newTestEngine(t *testing.T) (*socialscope.Engine, *workload.TravelCorpus, *workload.TaggingStream) {
	t.Helper()
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 40, Destinations: 15, Seed: 3, VisitsPerUser: 5, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := socialscope.New(corpus.Graph, socialscope.Config{ItemType: "destination"})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewTaggingStream(corpus.Graph, corpus.Users, corpus.Destinations,
		workload.Categories, 5)
	if err != nil {
		t.Fatal(err)
	}
	return eng, corpus, stream
}

// TestCoalescerMergesConcurrentWrites verifies concurrent Enqueues land
// in one flush: one Engine.Apply, one version bump, shared outcome.
func TestCoalescerMergesConcurrentWrites(t *testing.T) {
	eng, _, stream := newTestEngine(t)
	// A long ticker so the flush that carries both requests is the one the
	// maxBatch trigger fires, not a timing accident.
	c := NewCoalescer(eng, 4, time.Hour, obs.NewRegistry())
	defer c.Stop()
	v0 := eng.Version()

	const writers = 2
	outcomes := make([]applyOutcome, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := c.Enqueue(context.Background(), stream.Batch(2))
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = out
		}(i)
	}
	wg.Wait()

	if v := eng.Version(); v != v0+1 {
		t.Fatalf("version %d -> %d across one coalesced flush, want exactly +1", v0, v)
	}
	for i, out := range outcomes {
		if out.version != v0+1 {
			t.Fatalf("writer %d saw version %d, want %d", i, out.version, v0+1)
		}
		if out.coalesced != writers || out.batched != 4 {
			t.Fatalf("writer %d: coalesced=%d batched=%d, want %d and 4", i, out.coalesced, out.batched, writers)
		}
	}
	if f, r, m := c.flushes.Value(), c.requests.Value(), c.mutations.Value(); f != 1 || r != writers || m != 4 {
		t.Fatalf("flushes/requests/mutations = %d/%d/%d, want one 4-mutation flush of %d requests", f, r, m, writers)
	}
}

// TestCoalescerTickerBoundsLatency verifies a lone small write is not
// held hostage by the batch threshold: the ticker flushes it.
func TestCoalescerTickerBoundsLatency(t *testing.T) {
	eng, _, stream := newTestEngine(t)
	c := NewCoalescer(eng, 1<<20, 5*time.Millisecond, obs.NewRegistry())
	defer c.Stop()
	start := time.Now()
	out, err := c.Enqueue(context.Background(), stream.Batch(1))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lone write waited %v for a flush", elapsed)
	}
	if out.version == 0 {
		t.Fatalf("no version bump")
	}
}

// TestCoalescerErrorIsolation verifies a poisoned flush degrades to
// per-request application: the conflicting request fails, the innocent
// one lands.
func TestCoalescerErrorIsolation(t *testing.T) {
	eng, corpus, stream := newTestEngine(t)
	c := NewCoalescer(eng, 1<<20, time.Hour, obs.NewRegistry())
	defer c.Stop()
	v0 := eng.Version()

	good := stream.Batch(2)
	// The bad request re-adds a node the engine already serves —
	// Engine.Apply rejects the whole combined batch, forcing the
	// per-request fallback.
	bad := []graph.Mutation{{Kind: graph.MutAddNode,
		Node: corpus.Graph.Node(corpus.Users[0]).Clone()}}

	var wg sync.WaitGroup
	var goodOut, badOut applyOutcome
	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodOut, goodErr = c.Enqueue(context.Background(), good)
	}()
	go func() {
		defer wg.Done()
		badOut, badErr = c.Enqueue(context.Background(), bad)
	}()
	// Wait for both to queue, then force the flush via Stop's drain.
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop()
	wg.Wait()

	if goodErr != nil {
		t.Fatalf("innocent request failed: %v (outcome %+v)", goodErr, goodOut)
	}
	if badErr == nil {
		t.Fatalf("conflicting request succeeded: %+v", badOut)
	}
	if eng.Version() != v0+1 {
		t.Fatalf("version %d -> %d, want exactly the innocent request's bump", v0, eng.Version())
	}
	if !eng.Graph().HasLink(good[0].Link.ID) || !eng.Graph().HasLink(good[1].Link.ID) {
		t.Fatalf("innocent request's links missing")
	}
	if n := c.fallbacks.Value(); n != 1 {
		t.Fatalf("fallbacks = %d, want one fallback flush", n)
	}
}

// TestCoalescerStoppedRejects verifies Enqueue after Stop fails instead
// of hanging.
func TestCoalescerStoppedRejects(t *testing.T) {
	eng, _, stream := newTestEngine(t)
	c := NewCoalescer(eng, 4, time.Millisecond, obs.NewRegistry())
	c.Stop()
	if _, err := c.Enqueue(context.Background(), stream.Batch(1)); err == nil {
		t.Fatal("Enqueue on a stopped coalescer succeeded")
	}
}

// TestLimiter verifies admission control: concurrency is capped, the
// queue bound sheds load, and a waiting request honors its context.
func TestLimiter(t *testing.T) {
	l := NewLimiter(1, 0, obs.NewRegistry())
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(context.Background()); err != ErrOverloaded {
		t.Fatalf("second acquire with zero queue: %v, want ErrOverloaded", err)
	}
	release()
	release, err = l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}

	// With one queue slot, a waiter parks until its context expires.
	l2 := NewLimiter(1, 1, obs.NewRegistry())
	r2, _ := l2.Acquire(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := l2.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire: %v, want deadline exceeded", err)
	}
	r2()
	release()

	if a, r := l.admitted.Value(), l.rejected.Value(); a != 2 || r != 1 {
		t.Fatalf("admitted/rejected = %d/%d, want 2 admitted / 1 rejected", a, r)
	}
}
