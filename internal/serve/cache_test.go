package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socialscope/internal/obs"
)

// TestCacheSingleflight verifies concurrent identical misses share one
// computation: the leader computes, everyone else piggybacks.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	key := cacheKey{version: 1, kind: "search", user: 1, query: "'museum'|k=10|a=0.5"}
	var computes atomic.Int32
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	outcomes := make([]Outcome, callers)
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, outcome, err := c.Do(context.Background(), key, func() ([]byte, bool, error) {
				computes.Add(1)
				<-release // hold the flight open until everyone queued
				return []byte("answer"), true, nil
			})
			if err != nil {
				t.Error(err)
			}
			outcomes[i] = outcome
			bodies[i] = body
		}(i)
	}
	// Wait until every caller has either started the flight or joined it.
	for {
		if c.shared.Value() == callers-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations for %d concurrent identical misses, want 1", n, callers)
	}
	misses, shares := 0, 0
	for i, o := range outcomes {
		if string(bodies[i]) != "answer" {
			t.Fatalf("caller %d got %q", i, bodies[i])
		}
		switch o {
		case OutcomeMiss:
			misses++
		case OutcomeShared:
			shares++
		default:
			t.Fatalf("caller %d outcome %q", i, o)
		}
	}
	if misses != 1 || shares != callers-1 {
		t.Fatalf("outcomes: %d misses, %d shared; want 1 and %d", misses, shares, callers-1)
	}
	// The stored entry now serves hits.
	if _, outcome, _ := c.Do(context.Background(), key, func() ([]byte, bool, error) {
		t.Fatal("hit path recomputed")
		return nil, false, nil
	}); outcome != OutcomeHit {
		t.Fatalf("follow-up outcome %q, want hit", outcome)
	}
}

// TestCacheErrorNotStored verifies failed computations are returned to
// every waiter but never cached.
func TestCacheErrorNotStored(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	key := cacheKey{version: 1, kind: "search", user: 1, query: "q"}
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), key, func() ([]byte, bool, error) { return nil, false, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	called := false
	if _, outcome, err := c.Do(context.Background(), key, func() ([]byte, bool, error) {
		called = true
		return []byte("ok"), true, nil
	}); err != nil || outcome != OutcomeMiss || !called {
		t.Fatalf("error was cached: outcome=%v err=%v called=%v", outcome, err, called)
	}
}

// TestCacheStoreVeto verifies a computation may decline storage (the
// server does when the engine version advanced mid-compute): the body is
// served but never cached.
func TestCacheStoreVeto(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	key := cacheKey{version: 1, kind: "search", user: 1, query: "q"}
	if _, _, err := c.Do(context.Background(), key, func() ([]byte, bool, error) { return []byte("x"), false, nil }); err != nil {
		t.Fatal(err)
	}
	if n := cacheEntries(c); n != 0 {
		t.Fatalf("vetoed store left %d entries", n)
	}
}

// TestCachePanicDoesNotWedgeKey verifies a panicking compute releases
// its waiters and the key stays usable.
func TestCachePanicDoesNotWedgeKey(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	key := cacheKey{version: 1, kind: "search", user: 1, query: "q"}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.Do(context.Background(), key, func() ([]byte, bool, error) { panic("boom") })
	}()
	// The key is not wedged: a fresh Do computes normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, outcome, err := c.Do(context.Background(), key, func() ([]byte, bool, error) {
			return []byte("ok"), true, nil
		})
		if err != nil || outcome != OutcomeMiss || string(body) != "ok" {
			t.Errorf("post-panic Do: body=%q outcome=%v err=%v", body, outcome, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after a panicking compute")
	}
}

// TestCacheWaiterHonorsOwnContext verifies a piggybacked request is not
// held past its own deadline by a slow leader — and that a leader
// failing with its own context error does not fail a healthy waiter.
func TestCacheWaiterHonorsOwnContext(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	key := cacheKey{version: 1, kind: "search", user: 1, query: "q"}
	leaderStarted := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // slow leader that ultimately fails with its own ctx error
		defer wg.Done()
		c.Do(context.Background(), key, func() ([]byte, bool, error) {
			close(leaderStarted)
			<-release
			return nil, false, context.DeadlineExceeded // the leader's budget ran out
		})
	}()
	<-leaderStarted

	// Waiter 1: its own short deadline expires while parked on the flight.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := c.Do(ctx, key, func() ([]byte, bool, error) {
		t.Error("expired waiter recomputed")
		return nil, false, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired waiter err = %v, want its own deadline", err)
	}

	// Waiter 2: healthy context; the leader's context failure must trigger
	// a recompute, not be inherited.
	wg.Add(1)
	var body []byte
	var outcome Outcome
	var err error
	go func() {
		defer wg.Done()
		body, outcome, err = c.Do(context.Background(), key, func() ([]byte, bool, error) {
			return []byte("fresh"), true, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let waiter 2 park on the flight
	close(release)
	wg.Wait()
	if err != nil || string(body) != "fresh" || outcome != OutcomeMiss {
		t.Fatalf("healthy waiter after leader ctx failure: body=%q outcome=%v err=%v", body, outcome, err)
	}
}

// TestCacheEvictionPrefersStaleVersions verifies the capacity bound
// holds and orphaned (older-version) entries are reclaimed first.
func TestCacheEvictionPrefersStaleVersions(t *testing.T) {
	c := NewCache(4, obs.NewRegistry())
	put := func(version uint64, q string) {
		key := cacheKey{version: version, kind: "search", user: 1, query: q}
		c.Do(context.Background(), key, func() ([]byte, bool, error) { return []byte(q), true, nil })
	}
	put(1, "a")
	put(1, "b")
	put(2, "c")
	put(2, "d")
	put(2, "e") // full: must evict, and from version 1 first
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) > 4 {
		t.Fatalf("cache grew to %d entries past its bound of 4", len(c.entries))
	}
	v2 := 0
	for k := range c.entries {
		if k.version == 2 {
			v2++
		}
	}
	if v2 != 3 {
		t.Fatalf("eviction removed a current-version entry: %d v2 entries, want 3", v2)
	}
}

// TestCacheNewerVersionFreesOlder verifies the first store at a newer
// version frees every entry of the older ones, and that a body computed
// at a version older than the newest stored is dropped as a veto.
func TestCacheNewerVersionFreesOlder(t *testing.T) {
	c := NewCache(16, obs.NewRegistry())
	put := func(version uint64, q string) {
		key := cacheKey{version: version, kind: "search", user: 1, query: q}
		c.Do(context.Background(), key, func() ([]byte, bool, error) { return []byte(q), true, nil })
	}
	put(1, "a")
	put(1, "b")
	put(1, "c")
	if n := cacheEntries(c); n != 3 {
		t.Fatalf("entries at v1 = %d, want 3", n)
	}
	put(2, "a")
	if n := cacheEntries(c); n != 1 || c.evictions.Value() != 3 {
		t.Fatalf("after the first v2 store: entries = %d, evictions = %d; want 1, 3", n, c.evictions.Value())
	}
	put(1, "late") // computed against v1, finished after v2 was stored
	if n := cacheEntries(c); n != 1 || c.vetoes.Value() != 1 {
		t.Fatalf("late v1 store: entries = %d, vetoes = %d; want 1, 1", n, c.vetoes.Value())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.entries {
		if k.version != 2 {
			t.Errorf("entry %+v survived the move to version 2", k)
		}
	}
}

// cacheEntries is the resident entry count ss_cache_entries reports.
func cacheEntries(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
