package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"socialscope/internal/obs"
)

// runConfig is one (workload, trace mode) run.
type runConfig struct {
	wl      *workloadDef
	seed    int64
	seconds float64 // measured time: the timed phase of an end-to-end run
	short   bool    // smoke run: percentile sample floors waived
	outDir  string
	spec    *benchSpec
}

// runResult is what one run reports. A failed correctness check leaves
// Correct false with the reason in CheckErr; Metrics are still filled.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	CheckErr  string                 `json:"check_error,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	// MachineSpeed is the median yardstick speed over an end-to-end run's
	// windows (1 = reference): how disturbed the sandbox was.
	MachineSpeed float64  `json:"machine_speed,omitempty"`
	OpErrs       []string `json:"op_errors,omitempty"`
}

const (
	setupRepeats   = 5 // full set-ups before, and again after, the timed phase of an end-to-end run; setup_s is the median of all
	recoverRepeats = 5 // cold recoveries per traced run; recover_s is their median
)

func (cfg runConfig) warmup() time.Duration {
	if cfg.short {
		return 200 * time.Millisecond
	}
	return 2 * time.Second
}

func (cfg runConfig) timed() time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second))
}

// load is one closed-loop phase on a fresh rig.
type load struct {
	rig     *rig
	clients []*client
	checker *generator // a further generator of the same workload, for sampled checks
	stopped bool
}

// startLoad builds a rig and loadClients clients on it.
func startLoad(cfg runConfig, tr *tracer, nClients int) (*load, error) {
	r, err := newRig(cfg.wl, cfg.seed, cfg.outDir, tr)
	if err != nil {
		return nil, err
	}
	gens, err := newGenerators(cfg.wl, r.corpus, cfg.seed, nClients+1)
	if err != nil {
		r.stop()
		return nil, err
	}
	l := &load{rig: r, checker: gens[nClients]}
	for _, g := range gens[:nClients] {
		l.clients = append(l.clients, newClient(g, r.base, tr))
	}
	return l, nil
}

func (l *load) stop() {
	if l.stopped {
		return
	}
	l.stopped = true
	for _, c := range l.clients {
		c.close()
	}
	l.rig.stop()
}

// check runs every correctness check that applies to the workload.
func (l *load) check(cfg runConfig) error {
	if err := checkReads(l.rig, l.checker); err != nil {
		return err
	}
	if err := checkWrites(l.rig, l.clients); err != nil {
		return err
	}
	if cfg.wl.durable {
		return checkRecovery(l.rig, cfg.outDir)
	}
	return nil
}

func (l *load) opErrs() []string {
	var out []string
	for _, c := range l.clients {
		out = append(out, c.errs...)
	}
	return out
}

// runEndToEnd is the --trace 0 run: repeated set-up, warm-up, the timed
// closed loop with tracing off, then the correctness checks.
func runEndToEnd(cfg runConfig) (runResult, error) {
	ms := newMetricSet(cfg.spec.EndToEnd)
	// Each set-up is scaled by the machine speed measured right before and
	// right after it, like every window of the timed phase.
	var setups, rawSetups []float64
	yard := yardstickPair()
	setUp := func() (*load, error) {
		t0 := time.Now()
		l, err := startLoad(cfg, nil, loadClients)
		took := time.Since(t0).Seconds()
		before := yard
		yard = yardstickPair()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*yardstickSpeed((before+yard)/2))
		return l, err
	}
	var l *load
	for i := 0; i < setupRepeats; i++ {
		if l != nil {
			l.stop()
		}
		var err error
		if l, err = setUp(); err != nil {
			return runResult{}, err
		}
	}
	defer l.stop()

	runClosedLoop(l.clients, cfg.warmup(), cfg.timed(), true, nil)
	ls := reduce(l.clients)
	if len(ls.reads) == 0 {
		return runResult{}, fmt.Errorf("no read completed: %v", l.opErrs())
	}

	ms.setRaw("ops_per_s", median(ls.opsPerS), spread(ls.opsPerS), median(ls.rawOps))
	ms.setRaw("read_p50_us", pct(ls.reads, 0.50), 0, pct(ls.rawReads, 0.50))
	ms.setRaw("read_p90_us", pct(ls.reads, 0.90), 0, pct(ls.rawReads, 0.90))
	// The heap is the program's, not the harness's: drop the samples (tens
	// of MB on tagged_hot) before looking.
	ls.reads, ls.writes, ls.rawReads = nil, nil, nil
	for _, c := range l.clients {
		c.samples = nil
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20))

	res := runResult{Correct: true, Attempted: ls.attempted, Failed: ls.failed, OpErrs: l.opErrs(),
		MachineSpeed: median(ls.speed)}
	if err := l.check(cfg); err != nil {
		res.Correct, res.CheckErr = false, err.Error()
	}
	// The rest of the set-ups, a run's length after the first ones.
	l.stop()
	for i := 0; i < setupRepeats; i++ {
		again, err := setUp()
		if err != nil {
			return res, err
		}
		again.stop()
	}
	ms.setRaw("setup_s", median(setups), spread(setups), median(rawSetups))
	var err error
	res.Metrics, err = ms.finish()
	return res, err
}

// lagProbe measures replication lag as a reader would meet it: the time
// from a write's ack until the follower's Version() reaches the acked
// version.
type lagProbe struct {
	version func() uint64
	mu      sync.Mutex
	pending []ack
	lagsMS  []float64
	stopCh  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
}

func startLagProbe(version func() uint64) *lagProbe {
	p := &lagProbe{version: version, stopCh: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				return
			case now := <-t.C:
				v := p.version()
				p.mu.Lock()
				keep := p.pending[:0]
				for _, a := range p.pending {
					if a.version <= v {
						p.lagsMS = append(p.lagsMS, float64(now.Sub(a.at).Nanoseconds())/1e6)
					} else {
						keep = append(keep, a)
					}
				}
				p.pending = keep
				p.mu.Unlock()
			}
		}
	}()
	return p
}

func (p *lagProbe) onAck(a ack) {
	p.mu.Lock()
	p.pending = append(p.pending, a)
	p.mu.Unlock()
}

// stop ends the probe (once) and returns the lags it saw.
func (p *lagProbe) stop() []float64 {
	p.once.Do(func() { close(p.stopCh) })
	p.wg.Wait()
	return p.lagsMS
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// counters sums a metric over the registries that carry it (leader and
// follower each have a cache, say).
func counters(snaps []map[string]float64, name string) float64 {
	var v float64
	for _, s := range snaps {
		v += s[name]
	}
	return v
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// runTraced is the --trace 1 run, four passes on fresh rigs:
//
//	L  the two-client closed loop, untraced, for the figures that need
//	   steady state (cache shares, runtime cost, replication lag, write
//	   latency, recovery);
//	B1 one client replaying a fixed op count, untraced;
//	B2 the same ops with spans on, on a second rig — B2−B1 is the
//	   tracing overhead, and B2's registry counts repeat exactly run to
//	   run;
//	S  the staircase of direct calls below serve.
//
// B1, B2 and S take turns op by op, so whatever speed the sandbox has
// at the moment, it has for all three.
func runTraced(cfg runConfig) (runResult, error) {
	ms := newMetricSet(cfg.spec.PerLayer)
	res := runResult{Correct: true}

	// ---- L ----
	l, err := startLoad(cfg, nil, loadClients)
	if err != nil {
		return res, err
	}
	defer l.stop()
	var probe *lagProbe
	if cfg.wl.routed {
		probe = startLagProbe(l.rig.fol.eng.Version)
		defer probe.stop()
		for _, c := range l.clients {
			c.onAck = probe.onAck
		}
	}
	regs := []*obs.Registry{l.rig.leader.reg}
	if l.rig.fol != nil {
		regs = append(regs, l.rig.fol.reg)
	}
	snap := func() []map[string]float64 {
		out := make([]map[string]float64, len(regs))
		for i, r := range regs {
			out[i] = r.Snapshot()
		}
		return out
	}
	var before []map[string]float64
	var routeBefore map[string]float64
	var memBefore, memAfter runtime.MemStats
	var gcBefore, cpuBefore float64
	timed := cfg.timed() / 2
	runClosedLoop(l.clients, cfg.warmup(), timed, false, func() {
		before = snap()
		if l.rig.rtReg != nil {
			routeBefore = l.rig.rtReg.Snapshot()
		}
		runtime.ReadMemStats(&memBefore)
		gcBefore, cpuBefore = gcCPU()
	})
	runtime.ReadMemStats(&memAfter)
	gcAfter, cpuAfter := gcCPU()
	after := snap()
	delta := func(name string) float64 { return counters(after, name) - counters(before, name) }
	ls := reduce(l.clients)
	res.Attempted, res.Failed, res.OpErrs = ls.attempted, ls.failed, l.opErrs()
	if len(ls.reads) == 0 {
		return res, fmt.Errorf("no read completed: %v", res.OpErrs)
	}
	completed := float64(ls.attempted - ls.failed)

	ms.set("failed_share", share(float64(ls.failed), float64(ls.attempted)))
	ms.set("read_p99_us", tail(ls.reads, "read", cfg, &res))
	lookups := delta("ss_cache_hits_total") + delta("ss_cache_misses_total") + delta("ss_cache_shared_total")
	ms.set("serve.cache_hit_share", share(delta("ss_cache_hits_total")+delta("ss_cache_shared_total"), lookups))
	ms.set("serve.cache_evictions", delta("ss_cache_evictions_total"))
	ms.set("serve.cache_store_vetoes", delta("ss_cache_store_vetoes_total"))
	ms.set("serve.mutations_per_flush", share(delta("ss_coalescer_mutations_total"), delta("ss_coalescer_flushes_total")))
	ms.set("serve.limiter_rejected", delta("ss_limiter_rejected_total"))
	ms.set("runtime.allocs_per_op", share(float64(memAfter.Mallocs-memBefore.Mallocs), completed))
	ms.set("runtime.bytes_per_op", share(float64(memAfter.TotalAlloc-memBefore.TotalAlloc), completed))
	ms.set("runtime.gc_cpu_share", share(gcAfter-gcBefore, cpuAfter-cpuBefore))
	var genTime time.Duration
	ops := 0
	for _, c := range l.clients {
		genTime += c.genTime
		ops += len(c.samples)
	}
	ms.set("bench.gen_us_per_op", share(float64(genTime.Nanoseconds())/1e3, float64(ops)))

	if len(ls.writes) > 0 {
		ms.set("write_p50_us", pct(ls.writes, 0.50))
		ms.set("write_p99_us", tail(ls.writes, "write", cfg, &res))
	} else {
		ms.zero("write_p50_us", "write_p99_us")
	}

	if cfg.wl.routed {
		rt := l.rig.rtReg.Snapshot()
		rd := func(name string) float64 { return rt[name] - routeBefore[name] }
		reads := rd("ss_route_reads_total")
		ms.set("route.tries_per_read", share(reads+rd("ss_route_retries_total")+rd("ss_route_hedges_total"), reads))
		ms.set("route.hedges", rd("ss_route_hedges_total"))
		ms.set("route.hedge_win_share", share(rd("ss_route_hedge_wins_total"), rd("ss_route_hedges_total")))
		ms.set("route.retries", rd("ss_route_retries_total"))
		ms.set("route.stale_served_share", share(rd("ss_route_stale_served_total"), reads))
	} else {
		ms.zero("route.tries_per_read", "route.hedges", "route.hedge_win_share", "route.retries", "route.stale_served_share")
	}

	if err := l.check(cfg); err != nil {
		res.Correct, res.CheckErr = false, err.Error()
	}
	if cfg.wl.durable {
		if err := measureRecovery(l.rig, cfg.outDir, ms); err != nil {
			return res, err
		}
	} else {
		ms.zero("recover_s", "engine.recover_wal_records")
	}
	// Stop L before reading what its follow loop recorded, and before the
	// serial passes: they must have the machine to themselves.
	var lags []float64
	if probe != nil {
		lags = probe.stop()
	}
	l.stop()
	if cfg.wl.routed {
		ms.set("replication.visible_lag_ms", median(lags))
		ms.set("replication.catchup_us", median(l.rig.catchupUS))
		ms.set("replication.lag_records_max", float64(l.rig.lagRecsMax))
	} else {
		ms.zero("replication.visible_lag_ms", "replication.catchup_us", "replication.lag_records_max")
	}

	// ---- B1, B2 ----
	n := cfg.wl.tracedOps
	if cfg.short {
		n /= 10
	}
	corpus, err := newCorpus()
	if err != nil {
		return res, err
	}
	st, err := newStairs(corpus, cfg.outDir, ms)
	if err != nil {
		return res, fmt.Errorf("staircase: %w", err)
	}
	defer st.close()
	tr := newTracer()
	bare, traced, err := replayPair(cfg, n, tr, st)
	if err != nil {
		return res, err
	}
	if err := tr.write(filepath.Join(outRoot, "trace_"+cfg.wl.name+".json")); err != nil {
		return res, err
	}
	res.Failed += bare.failed + traced.failed
	res.Attempted += 2 * n
	res.OpErrs = append(res.OpErrs, append(bare.opErrs, traced.opErrs...)...)
	// Both passes sent the same ops in the same order to fresh rigs, turn
	// by turn, so the overhead is the median per-op difference.
	var extra []float64
	for i := range traced.latUS {
		if bare.latUS[i] > 0 && traced.latUS[i] > 0 {
			extra = append(extra, traced.latUS[i]-bare.latUS[i])
		}
	}
	ms.set("bench.trace_overhead_share", share(median(extra), median(bare.latUS)))

	c := traced.counts
	ms.set("wal.fsync_count", c["ss_wal_appends_total"])
	ms.set("wal.bytes_appended", c["ss_wal_append_bytes_total"])
	ms.set("wal.bytes_per_user_byte", share(c["ss_wal_append_bytes_total"], traced.userBytes))
	ms.set("store.checkpoints_full", c[`ss_checkpoints_total{kind="full"}`])
	ms.set("store.checkpoints_delta", c[`ss_checkpoints_total{kind="delta"}`])
	ms.set("store.checkpoint_bytes_total", c["ss_checkpoint_bytes_sum"])
	ms.set("store.delta_ratio", c["ss_checkpoint_delta_ratio"])
	ms.set("store.dir_bytes_per_user_byte", share(traced.dirBytes, traced.userBytes))

	if err := st.report(ms); err != nil {
		return res, fmt.Errorf("staircase: %w", err)
	}
	figures := layerFigures(tr.spans, st)
	computed := figures[clientComputedUS]
	delete(figures, clientComputedUS)
	for name, v := range figures {
		ms.set(name, v)
	}
	// The prediction "per-layer self times add up to the read": every self
	// time on a computed read's path, over what the single client saw for
	// such a read.
	var sum float64
	for _, name := range []string{"bench.http_self_us", "route.read_self_us", "route.hop_us",
		"serve.handler_self_us", "serve.wire_us", "engine.query_self_us", "discovery.tagged_self_us",
		"topk.topk_us", "discovery.fusion_us", "presentation.organize_us", "presentation.explain_us",
		"discovery.related_us"} {
		sum += ms.got[name].Value
	}
	ms.set("bench.self_sum_share", share(sum, computed))

	res.Metrics, err = ms.finish()
	return res, err
}

// tail returns the pooled 99th percentile of a closed-loop phase. With
// fewer than minBeyond samples beyond it the figure is one outlier's
// latency rather than a percentile; it is still reported — the traced
// run gates nothing — but the run says so.
func tail(sorted []float64, what string, cfg runConfig, res *runResult) float64 {
	v, beyond := percentile(sorted, 0.99)
	if beyond < minBeyond && !cfg.short {
		res.Notes = append(res.Notes, fmt.Sprintf("%s_p99_us: only %d of %d samples lie beyond it (floor %d): indicative only",
			what, beyond, len(sorted), minBeyond))
	}
	return v
}

// measureRecovery times cold OpenDurable on copies of the directory
// the closed loop left behind.
func measureRecovery(r *rig, outDir string, ms *metricSet) error {
	var secs []float64
	var replayed float64
	for i := 0; i < recoverRepeats; i++ {
		rec, err := recoverCopy(r, outDir)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		secs = append(secs, rec.took.Seconds())
		replayed = rec.reg.Snapshot()["ss_engine_applies_total"]
		if err := rec.close(); err != nil {
			return fmt.Errorf("recovery: close: %w", err)
		}
	}
	ms.setRaw("recover_s", median(secs), spread(secs), 0)
	ms.set("engine.recover_wal_records", replayed)
	return nil
}

// passResult is one single-client replay.
type passResult struct {
	failed    int
	opErrs    []string
	latUS     []float64 // per op, 0 where the op failed
	counts    map[string]float64
	userBytes float64
	dirBytes  float64
}

// replayPair replays the workload's first n ops twice, one client
// each, on two fresh rigs: one bare, one with spans on. The two take
// turns op by op (and swap who goes first), so a slow moment of the
// sandbox falls on both. Same seed, same ops, one at a time: the
// registry counts each returns repeat exactly.
func replayPair(cfg runConfig, n int, tr *tracer, st *stairs) (bare, traced passResult, err error) {
	loads := [2]*load{}
	for i, t := range []*tracer{nil, tr} {
		if loads[i], err = startLoad(cfg, t, 1); err != nil {
			return bare, traced, err
		}
		defer loads[i].stop()
	}
	for i := 0; i < n; i++ {
		for _, side := range []int{i % 2, 1 - i%2} {
			c := loads[side].clients[0]
			o := c.gen.next()
			t0 := time.Now()
			ok := c.do(o, i)
			c.samples = append(c.samples, sample{lat: time.Since(t0), read: o.kind.read(), ok: ok})
			if side == 1 {
				if err := st.step(i, o); err != nil {
					return bare, traced, fmt.Errorf("staircase: op %d: %w", i, err)
				}
			}
		}
	}
	results := [2]passResult{}
	for side, l := range loads {
		c := l.clients[0]
		out := passResult{opErrs: c.errs, latUS: make([]float64, n), userBytes: float64(c.userBytes)}
		for i, s := range c.samples {
			if s.ok {
				out.latUS[i] = float64(s.lat.Nanoseconds()) / 1e3
			} else {
				out.failed++
			}
		}
		if out.failed == n {
			return bare, traced, fmt.Errorf("replay: every op failed: %v", c.errs)
		}
		out.counts = l.rig.leader.reg.Snapshot()
		if l.rig.dir != "" {
			b, err := dirBytes(l.rig.dir)
			if err != nil {
				return bare, traced, err
			}
			out.dirBytes = float64(b)
		}
		results[side] = out
	}
	return results[0], results[1], nil
}
