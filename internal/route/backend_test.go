package route

import (
	"testing"
	"time"

	"socialscope/internal/obs"
)

// TestHedgeDelayReadsBackendHistogram pins the hedge trigger to the
// backend's ss_route_backend_seconds histogram: no hedge without metrics
// or below 8 observations, then the histogram's quantile clamped to
// [min, max].
func TestHedgeDelayReadsBackendHistogram(t *testing.T) {
	b, err := newBackend("h:1", 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	b.noteResult(true, 3*time.Millisecond, now)
	if d, ok := b.hedgeDelay(0.9, time.Millisecond, time.Second); ok {
		t.Fatalf("backend without metrics hedges after %v", d)
	}

	b.met = newBackendMetrics(obs.NewRegistry(), b.Host)
	for i := 0; i < 7; i++ {
		b.noteResult(true, 3*time.Millisecond, now)
	}
	b.noteResult(true, 0, now) // a shed: no latency sample
	if d, ok := b.hedgeDelay(0.9, time.Millisecond, time.Second); ok {
		t.Fatalf("7 observations hedge after %v", d)
	}
	b.noteResult(true, 3*time.Millisecond, now)
	want := time.Duration(b.met.lat.Quantile(0.9) * float64(time.Second))
	if want <= 3*time.Millisecond || want > 5*time.Millisecond {
		t.Fatalf("p90 of eight 3ms tries = %v, want in (3ms, 5ms], interpolated in the 2.5-5 ms bucket", want)
	}
	for _, c := range []struct {
		min, max, want time.Duration
	}{
		{time.Millisecond, time.Second, want},                          // unclamped
		{10 * time.Millisecond, time.Second, 10 * time.Millisecond},    // floored
		{time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}, // capped
		{time.Millisecond, 0, want},                                    // no cap
	} {
		if d, ok := b.hedgeDelay(0.9, c.min, c.max); !ok || d != c.want {
			t.Errorf("hedgeDelay(0.9, %v, %v) = %v, %v; want %v", c.min, c.max, d, ok, c.want)
		}
	}
}
