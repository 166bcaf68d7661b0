package route

import (
	"testing"
	"time"
)

// TestLatencyWindowQuantileNearestRank pins the hedge trigger to the
// nearest-rank definition: the q-quantile of n samples is the
// ceil(q·n)-th smallest, never one rank lower.
func TestLatencyWindowQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want time.Duration // samples are 1ms..n ms, so rank r is r ms
	}{
		{n: 7, q: 0.9, want: 0}, // too thin to hedge on
		{n: 8, q: 0.5, want: 4 * time.Millisecond},
		{n: 8, q: 0.9, want: 8 * time.Millisecond},
		{n: 8, q: 1, want: 8 * time.Millisecond},
		{n: 64, q: 0.9, want: 58 * time.Millisecond},
		{n: 64, q: 0.5, want: 32 * time.Millisecond},
	} {
		var w latencyWindow
		for i := tc.n; i >= 1; i-- { // reverse order: quantile must sort
			w.observe(time.Duration(i) * time.Millisecond)
		}
		got, ok := w.quantile(tc.q)
		if ok != (tc.want > 0) || got != tc.want {
			t.Errorf("n=%d q=%v: quantile = %v, %v; want %v", tc.n, tc.q, got, ok, tc.want)
		}
	}
}
