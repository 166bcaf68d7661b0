package socialscope

// Engine-facade observability: every engine resolves its metric
// handles once at construction (from Config.Obs, defaulting to the
// process-global obs.Default registry) and the hot query path performs
// only atomic updates — no locks, no map lookups. Tracing rides the
// request context: when a serving layer attaches an obs.Span, QueryCtx
// annotates it with the same work report it returns in Response.Stats.

import (
	"sync/atomic"
	"time"

	"socialscope/internal/graph"
	"socialscope/internal/obs"
)

// engineMetrics is the facade's registry wiring. Handles are shared by
// every engine instrumenting into the same registry (several engines
// in one test process accumulate; gauges are last-writer-wins), which
// is exactly the per-process semantics /metrics exposes.
type engineMetrics struct {
	reg        *obs.Registry
	version    *obs.Gauge     // ss_snapshot_version
	lag        *obs.Gauge     // ss_replication_lag_records
	applies    *obs.Counter   // ss_engine_applies_total
	applyBatch *obs.Histogram // ss_engine_apply_batch_size
	queries    [4]*obs.Counter
	fusion     *obs.Counter
	postings   *obs.Histogram
	exact      *obs.Histogram

	// publishNanos is the wall time of the last RCU state publish,
	// backing the snapshot-age gauge.
	publishNanos atomic.Int64
}

func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		reg = obs.Default
	}
	m := &engineMetrics{
		reg: reg,
		version: reg.Gauge("ss_snapshot_version",
			"engine state version the RCU snapshot serves (bumped by Apply and Analyze)"),
		lag: reg.Gauge("ss_replication_lag_records",
			"confirmed-but-unapplied WAL records on a follower (0 on leaders)"),
		applies: reg.Counter("ss_engine_applies_total",
			"mutation batches folded into the engine (live and replayed)"),
		applyBatch: reg.Histogram("ss_engine_apply_batch_size",
			"mutations per applied batch", obs.ExpBuckets(1, 2, 12)),
		fusion: reg.CounterVec("ss_queries_total",
			"queries answered, by evaluation strategy", "strategy").With("fusion"),
		postings: reg.Histogram("ss_query_postings_scanned",
			"sorted posting-list accesses per index-backed query", obs.ExpBuckets(1, 4, 10)),
		exact: reg.Histogram("ss_query_exact_scores",
			"exact rescoring computations per index-backed query", obs.ExpBuckets(1, 4, 8)),
	}
	qv := reg.CounterVec("ss_queries_total", "queries answered, by evaluation strategy", "strategy")
	for _, s := range []TopKStrategy{TopKOff, TopKExhaustive, TopKTA, TopKNRA} {
		m.queries[s] = qv.With(s.String())
	}
	reg.GaugeFunc("ss_engine_snapshot_age_seconds",
		"seconds since the last RCU state publish", func() float64 {
			ns := m.publishNanos.Load()
			if ns == 0 {
				return 0
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
	reg.GaugeFunc("ss_graph_shared_attr_sets",
		"attribute sets in the process-wide shared table stored links draw from", func() float64 {
			return float64(graph.SharedAttrSets())
		})
	return m
}

// publish makes st current and keeps the version and snapshot-age
// metrics in step with the RCU pointer.
func (e *Engine) publish(st *engineState) {
	e.state.Store(st)
	e.met.version.SetUint(st.version)
	e.met.publishNanos.Store(time.Now().UnixNano())
}

// recordQuery folds one evaluation's work report into the metrics and,
// when the request context carries a span, annotates it with the same
// fields Response.Stats reports.
func (e *Engine) recordQuery(sp *obs.Span, stats *SearchStats, version uint64) {
	if stats == nil {
		e.met.fusion.Inc()
		sp.SetString("strategy", "fusion")
		sp.SetUint("snapshot_version", version)
		return
	}
	e.met.queries[stats.Strategy].Inc()
	e.met.postings.Observe(float64(stats.PostingsScanned))
	e.met.exact.Observe(float64(stats.ExactScores))
	sp.SetString("strategy", stats.Strategy.String())
	sp.SetUint("snapshot_version", stats.SnapshotVersion)
	sp.SetInt("postings_scanned", int64(stats.PostingsScanned))
	sp.SetInt("exact_scores", int64(stats.ExactScores))
	sp.SetInt("candidates", int64(stats.Candidates))
	sp.SetBool("early_terminated", stats.EarlyTerminated)
}
