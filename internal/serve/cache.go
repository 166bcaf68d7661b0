package serve

import (
	"context"
	"errors"
	"sync"

	"socialscope/internal/graph"
	"socialscope/internal/obs"
)

// cacheKey identifies one cacheable evaluation: the engine state version
// the answer was computed against, the handler kind (search results and
// recommendations never alias), the requesting user and the normalized
// query. Responses are user-specific — rankings, endorser provenance and
// explanations all depend on who asks — so two users never share an
// entry, whatever the clustering strategy. Keying on the version
// makes invalidation free: an Apply batch bumps the engine version, new
// requests carry the new version, and entries under older versions are
// never read again — the first store at a newer version frees them all.
type cacheKey struct {
	version uint64
	kind    string
	user    graph.NodeID
	query   string
}

// flight is one in-progress computation other requests for the same key
// wait on instead of recomputing — singleflight deduplication of
// concurrent identical misses.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// Cache is the snapshot-version-keyed result cache. Values are fully
// marshaled response bodies, so a hit costs one map lookup and one
// write — and the cached and uncached paths are byte-identical by
// construction. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[cacheKey][]byte
	flights map[cacheKey]*flight
	// newest is the highest version stored so far: every entry is keyed
	// at it, and a body computed at an older version is not stored.
	newest uint64

	// registry handles, resolved by NewCache
	hits, misses, shared, evictions, vetoes *obs.Counter
}

// DefaultCacheEntries bounds the cache when the configuration does not.
const DefaultCacheEntries = 4096

// NewCache returns a cache holding at most max marshaled bodies
// (DefaultCacheEntries when max <= 0), recording into reg (obs.Default
// when nil).
func NewCache(max int, reg *obs.Registry) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	if reg == nil {
		reg = obs.Default
	}
	c := &Cache{
		max:     max,
		entries: make(map[cacheKey][]byte),
		flights: make(map[cacheKey]*flight),
		hits:    reg.Counter("ss_cache_hits_total", "result-cache hits"),
		misses:  reg.Counter("ss_cache_misses_total", "result-cache misses (led a compute)"),
		shared: reg.Counter("ss_cache_shared_total",
			"misses that piggybacked on an identical in-flight compute"),
		evictions: reg.Counter("ss_cache_evictions_total", "result-cache evictions"),
		vetoes: reg.Counter("ss_cache_store_vetoes_total",
			"computed bodies not stored because the engine version advanced mid-compute or a newer version was already stored"),
	}
	reg.GaugeFunc("ss_cache_entries", "result-cache resident entries", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	return c
}

// Outcome classifies how a Do call was answered, for the X-SS-Cache
// response header and the hit-rate metrics.
type Outcome string

const (
	// OutcomeHit: served from a stored entry.
	OutcomeHit Outcome = "hit"
	// OutcomeMiss: computed by this call (and stored if permitted).
	OutcomeMiss Outcome = "miss"
	// OutcomeShared: piggybacked on an identical concurrent computation.
	OutcomeShared Outcome = "shared"
	// OutcomeBypass: cache disabled or sidestepped for this request.
	OutcomeBypass Outcome = "bypass"
)

// Do returns the body for key, computing it at most once across
// concurrent callers. compute returns the marshaled body plus whether it
// may be stored — the server declines storage when the engine version
// advanced mid-computation, so a body computed against state v+1 is
// never pinned under a version-v key. A compute error is returned to
// every waiter of the flight and nothing is stored.
//
// Waiters honor their own ctx while parked on another request's flight,
// and a leader whose compute fails with its *own* context error (the
// leading client disconnected or ran out its per-request budget) does
// not fail healthy piggybackers — they re-enter the flight protocol, so
// exactly one of them becomes the new leader (whose result is stored)
// and the rest share it. A panicking compute releases its waiters with
// an error before propagating, so a key can never be wedged.
func (c *Cache) Do(ctx context.Context, key cacheKey,
	compute func() (body []byte, store bool, err error)) ([]byte, Outcome, error) {
	var f *flight
	for {
		c.mu.Lock()
		if body, ok := c.entries[key]; ok {
			c.hits.Inc()
			c.mu.Unlock()
			return body, OutcomeHit, nil
		}
		prev, inFlight := c.flights[key]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			c.flights[key] = f
			c.misses.Inc()
			c.mu.Unlock()
			break // this caller leads
		}
		c.shared.Inc()
		c.mu.Unlock()
		select {
		case <-prev.done:
		case <-ctx.Done():
			return nil, OutcomeShared, ctx.Err()
		}
		if isContextErr(prev.err) && ctx.Err() == nil {
			// The leader died of its own request budget, not ours: go
			// around — one healthy waiter becomes the new leader, the
			// others pile onto its flight.
			continue
		}
		return prev.body, OutcomeShared, prev.err
	}

	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked. Fail the flight so waiters unblock and the key
		// is not wedged forever, then let the panic continue to the HTTP
		// layer's recovery.
		f.err = errors.New("serve: cache compute panicked")
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	body, store, err := compute()
	completed = true
	f.body, f.err = body, err

	// Deregister before waking waiters, so a waiter that goes around the
	// loop (failed-leader retry) finds either no flight or a successor's —
	// never this finished one.
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil && store && key.version >= c.newest {
		c.evictFor(key)
		c.entries[key] = body
	} else if err == nil {
		c.vetoes.Inc()
	}
	c.mu.Unlock()
	close(f.done)
	return body, OutcomeMiss, err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictFor makes room for one insertion under key. The first store at a
// newer version frees every entry of the older ones — orphans no future
// request carries the key of — so they never hold memory while the cache
// refills; a cache full of current-version entries evicts arbitrarily.
// Called with mu held and key.version >= c.newest.
func (c *Cache) evictFor(key cacheKey) {
	if key.version > c.newest {
		c.newest = key.version
		c.evictions.Add(uint64(len(c.entries)))
		clear(c.entries)
	}
	for k := range c.entries {
		if len(c.entries) < c.max {
			return
		}
		delete(c.entries, k)
		c.evictions.Inc()
	}
}
