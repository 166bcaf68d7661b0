package route

import (
	"socialscope/internal/obs"
)

// routerCounters are the routing tier's registry handles. All fields
// are lock-free counters, read out only through /metrics; /routerz
// carries the routing view alone.
type routerCounters struct {
	reads, writes         *obs.Counter
	retries, hedges       *obs.Counter
	hedgeWins             *obs.Counter
	staleServed           *obs.Counter
	staleRedirects        *obs.Counter
	breakerSkips          *obs.Counter
	failovers             *obs.Counter
	readErrors, writeErrs *obs.Counter
}

func newRouterCounters(reg *obs.Registry) routerCounters {
	return routerCounters{
		reads:     reg.Counter("ss_route_reads_total", "read requests routed"),
		writes:    reg.Counter("ss_route_writes_total", "write requests routed"),
		retries:   reg.Counter("ss_route_retries_total", "tries retried after backoff"),
		hedges:    reg.Counter("ss_route_hedges_total", "hedged second tries launched"),
		hedgeWins: reg.Counter("ss_route_hedge_wins_total", "answers won by the hedged try"),
		staleServed: reg.Counter("ss_route_stale_served_total",
			"reads degraded to an explicitly stale answer (X-SS-Stale: true)"),
		staleRedirects: reg.Counter("ss_route_stale_redirects_total",
			"fresh-enough retries within the staleness budget"),
		breakerSkips: reg.Counter("ss_route_breaker_skips_total",
			"backend selections skipped by an open circuit breaker"),
		failovers: reg.Counter("ss_route_failovers_total",
			"automatic leader failovers (follower promoted via /promote)"),
		readErrors: reg.Counter("ss_route_read_errors_total",
			"reads that exhausted every try without an answer"),
		writeErrs: reg.Counter("ss_route_write_errors_total",
			"writes that exhausted every try without an ack"),
	}
}

// backendMetrics are one backend's per-host registry handles, labeled
// by the backend's Host. Gauges mirror the routing view (see
// Backend.syncLocked); the histogram is the per-backend latency record
// the hedging trigger reads its quantile from (Backend.hedgeDelay).
type backendMetrics struct {
	up       *obs.Gauge // ss_route_backend_up{backend}
	brkState *obs.Gauge // ss_route_backend_breaker_state{backend}: 0 closed, 1 open, 2 half-open
	version  *obs.Gauge // ss_route_backend_version{backend}
	lag      *obs.Gauge // ss_route_backend_lag{backend}
	lat      *obs.Histogram
}

func newBackendMetrics(reg *obs.Registry, host string) *backendMetrics {
	return &backendMetrics{
		up: reg.GaugeVec("ss_route_backend_up",
			"1 when the backend's last health check succeeded", "backend").With(host),
		brkState: reg.GaugeVec("ss_route_backend_breaker_state",
			"circuit breaker state: 0 closed, 1 open, 2 half-open", "backend").With(host),
		version: reg.GaugeVec("ss_route_backend_version",
			"backend snapshot version as last observed", "backend").With(host),
		lag: reg.GaugeVec("ss_route_backend_lag",
			"backend replication lag in confirmed-but-unapplied WAL records", "backend").With(host),
		lat: reg.HistogramVec("ss_route_backend_seconds",
			"per-try latency of successful backend requests", nil, "backend").With(host),
	}
}

// syncLocked mirrors the routing view into the backend's gauges.
// Callers hold b.mu.
func (b *Backend) syncLocked() {
	if b.met == nil {
		return
	}
	if b.healthy {
		b.met.up.Set(1)
	} else {
		b.met.up.Set(0)
	}
	b.met.brkState.Set(float64(b.brk.state))
	b.met.version.SetUint(b.version)
	b.met.lag.SetUint(b.lag)
}
