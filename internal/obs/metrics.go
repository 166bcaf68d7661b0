// Package obs is the unified observability layer: a stdlib-only metrics
// core (atomic counters, gauges, fixed-bucket histograms with a
// lock-free hot path), a process-global but injectable Registry with
// Prometheus-text-format exposition, and lightweight per-request
// tracing Spans carried on context.Context.
//
// The package deliberately depends on nothing outside the standard
// library (enforced by the sslint stdlibonly analyzer): every serving
// package — engine facade, serve, route, wal, store — imports obs, so
// obs must sit below all of them in the dependency order.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is
// usable; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Values are float64s held
// as atomic bits; all methods are lock-free. A Gauge may instead be
// backed by a function (Registry.GaugeFunc), in which case Value
// evaluates it at read time and Set/Add are ignored.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g.fn != nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetUint stores an integer value.
func (g *Gauge) SetUint(v uint64) { g.Set(float64(v)) }

// Add adds delta (which may be negative) with a CAS loop.
func (g *Gauge) Add(delta float64) {
	if g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the gauge to v if v exceeds the current value — a
// high-watermark gauge.
func (g *Gauge) Max(v float64) {
	if g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is
// lock-free: one atomic add per bucket counter plus a CAS on the sum.
// Buckets are cumulative on exposition (Prometheus semantics: the
// bucket labeled le=x counts observations <= x).
type Histogram struct {
	upper  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	sort.Float64s(upper)
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; the final slot is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the owning bucket, the standard
// histogram_quantile estimate. Observations in the +Inf bucket clamp
// to the largest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.upper) { // +Inf bucket
				return h.upper[len(h.upper)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.upper[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + (h.upper[i]-lower)*frac
		}
		cum += n
	}
	return h.upper[len(h.upper)-1]
}

// DefBuckets are latency buckets in seconds, 100µs to 10s — sized for
// in-memory top-k evaluation on the low end and fsync/checkpoint work
// on the high end.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n buckets starting at start, each factor times
// the previous — for size-like distributions (batch sizes, postings
// scanned, checkpoint bytes).
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
