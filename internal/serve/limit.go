package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"socialscope/internal/obs"
)

// ErrOverloaded is returned when a request would exceed both the
// concurrency limit and the waiting-queue bound; the server maps it to
// 503 so load sheds at admission instead of piling latency onto every
// in-flight request.
var ErrOverloaded = errors.New("serve: overloaded — concurrency limit and queue depth exceeded")

// Limiter is the admission controller: at most maxConcurrent requests
// execute, at most maxQueue more wait, the rest are rejected
// immediately. Queue-depth gauges make saturation observable through
// /metrics before it becomes an outage.
type Limiter struct {
	slots    chan struct{}
	maxQueue int64

	queued atomic.Int64
	// registry handles, resolved by NewLimiter
	admitted *obs.Counter
	rejected *obs.Counter
}

// Defaults when the configuration leaves the limits unset.
const (
	DefaultMaxConcurrent = 64
	DefaultMaxQueue      = 256
)

// NewLimiter returns a limiter admitting maxConcurrent concurrent
// requests with a waiting queue of maxQueue (defaults applied for
// non-positive maxConcurrent; maxQueue < 0 defaults, 0 means no queue),
// recording into reg (obs.Default when nil).
func NewLimiter(maxConcurrent, maxQueue int, reg *obs.Registry) *Limiter {
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	if maxQueue < 0 {
		maxQueue = DefaultMaxQueue
	}
	if reg == nil {
		reg = obs.Default
	}
	l := &Limiter{
		slots:    make(chan struct{}, maxConcurrent),
		maxQueue: int64(maxQueue),
		admitted: reg.Counter("ss_limiter_admitted_total", "requests admitted past the limiter"),
		rejected: reg.Counter("ss_limiter_rejected_total",
			"requests shed by the limiter (queue bound exceeded or caller deadline expired while queued)"),
	}
	reg.GaugeFunc("ss_limiter_inflight", "requests currently executing", func() float64 {
		return float64(len(l.slots))
	})
	reg.GaugeFunc("ss_limiter_queued", "requests waiting for an execution slot", func() float64 {
		return float64(l.queued.Load())
	})
	return l
}

// Acquire admits the request or reports why it cannot run: ErrOverloaded
// when the queue bound is exceeded, ctx.Err() when the caller's deadline
// expires while waiting. On success the returned release function must
// be called exactly once.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	select {
	case l.slots <- struct{}{}:
		l.admitted.Inc()
		return l.release, nil
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		l.rejected.Inc()
		return nil, ErrOverloaded
	}
	select {
	case l.slots <- struct{}{}:
		l.queued.Add(-1)
		l.admitted.Inc()
		return l.release, nil
	case <-ctx.Done():
		l.queued.Add(-1)
		l.rejected.Inc()
		return nil, ctx.Err()
	}
}

func (l *Limiter) release() { <-l.slots }
