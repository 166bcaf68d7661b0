package store

import (
	"socialscope/internal/obs"
)

// storeMetrics are the checkpointer's registry handles. The delta
// ratio — last delta's bytes over the chain's full checkpoint bytes —
// is the structural-sharing payoff the PR 7 design bought: near-zero
// means deltas capture only what changed.
type storeMetrics struct {
	saves     *obs.CounterVec // ss_checkpoints_total{kind}
	bytes     *obs.Histogram  // ss_checkpoint_bytes
	lastBytes *obs.Gauge      // ss_checkpoint_last_bytes
	ratio     *obs.Gauge      // ss_checkpoint_delta_ratio
	dur       *obs.Histogram  // ss_checkpoint_seconds
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return &storeMetrics{
		saves: reg.CounterVec("ss_checkpoints_total",
			"checkpoints written, by kind (full resets the chain, delta extends it)", "kind"),
		bytes: reg.Histogram("ss_checkpoint_bytes",
			"bytes per checkpoint file", obs.ExpBuckets(256, 4, 10)),
		lastBytes: reg.Gauge("ss_checkpoint_last_bytes",
			"bytes of the most recent checkpoint file"),
		ratio: reg.Gauge("ss_checkpoint_delta_ratio",
			"last delta checkpoint's bytes over its chain's full checkpoint bytes"),
		dur: reg.Histogram("ss_checkpoint_seconds",
			"end-to-end Save latency (encode, fsync, manifest publish)", nil),
	}
}
