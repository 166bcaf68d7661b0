package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"socialscope"
	"socialscope/internal/cluster"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/obs"
	"socialscope/internal/presentation"
	"socialscope/internal/serve"
	"socialscope/internal/topk"
	"socialscope/internal/vfs"
	"socialscope/internal/wal"
	"socialscope/internal/workload"
)

// stairOps caps how many ops of each kind the staircase repeats.
const stairOps = 150

// timed runs f and returns how long it took, in µs.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3, err
}

// counted is timed plus the allocations f made. Nothing else may be
// allocating: the count is the process-wide Mallocs delta.
func counted(f func() error) (us, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	us, err = timed(f)
	runtime.ReadMemStats(&after)
	return us, float64(after.Mallocs - before.Mallocs), err
}

// stairs prices the layers below serve from outside. There is no seam
// to wrap down there, so each replayed op is repeated as direct calls
// into each layer's public functions, one step deeper at a time, and a
// layer's self time is the difference between adjacent steps. A read
// costs anything from 2 to 20 ms depending on whose results it
// explains, and the sandbox changes speed by the second, so an op's
// steps run back to back, right after the op itself went through the
// traced rig, and every self time is a median of per-op differences —
// never a difference of medians.
type stairs struct {
	g    *graph.Graph
	proc *topk.Processor
	disc *discovery.Discoverer
	eng  *socialscope.Engine // in-memory, index built
	// The write steps need a durable engine and a scratch log; both are
	// opened on the first write.
	corpus *workload.TravelCorpus
	outDir string
	dir    string
	dur    *socialscope.Engine
	log    *wal.Log

	searches, recommends, writes int
	work                         topk.Stats
	early                        int
	series                       map[string][]float64 // metric name → per-op values

	// what the span arithmetic subtracts, keyed by the op's index in the pass
	belowServeUS map[int]float64 // a read's engine call plus wire shaping
	applyUS      map[int]float64 // a write's durable Apply
}

// newStairs builds the processor exactly as Engine.ensureProcessor does
// (cluster.Build → index.Extract → index.Build → topk.New), timing the
// two builds, and an in-memory engine for the facade steps.
func newStairs(corpus *workload.TravelCorpus, outDir string, ms *metricSet) (*stairs, error) {
	st := &stairs{g: corpus.Graph, corpus: corpus, outDir: outDir, series: make(map[string][]float64),
		belowServeUS: make(map[int]float64), applyUS: make(map[int]float64)}
	t0 := time.Now()
	cl, err := cluster.Build(st.g, cluster.PerUser, 0)
	if err != nil {
		return nil, err
	}
	ms.set("cluster.build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	t0 = time.Now()
	ix, err := index.Build(index.Extract(st.g), cl, nil)
	if err != nil {
		return nil, err
	}
	ms.set("index.build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	ms.set("index.entries", float64(ix.EntryCount()))
	if st.proc, err = topk.New(ix.AtVersion(0), nil); err != nil {
		return nil, err
	}
	st.disc = discovery.NewDiscoverer(st.g, "destination")
	if st.eng, err = socialscope.New(st.g, engineConfig(socialscope.TopKTA, obs.NewRegistry())); err != nil {
		return nil, err
	}
	_, err = st.eng.SearchCtx(context.Background(), corpus.Users[0], probeQuery)
	return st, err
}

func (st *stairs) add(name string, v float64) { st.series[name] = append(st.series[name], v) }

// step repeats op i of the pass, layer by layer.
func (st *stairs) step(i int, o op) error {
	switch {
	case o.kind == opSearch && st.searches < stairOps:
		st.searches++
		return st.search(i, o)
	case o.kind == opRecommend && st.recommends < stairOps:
		st.recommends++
		us, err := timed(func() error {
			_, err := st.eng.RecommendCtx(context.Background(), o.user, discovery.CFStepwise)
			return err
		})
		st.add("engine.recommend_us", us)
		st.belowServeUS[i] = us
		return err
	case o.kind == opApply && st.writes < stairOps:
		st.writes++
		return st.write(i, o)
	}
	return nil
}

func (st *stairs) search(i int, o op) error {
	ctx := context.Background()
	q, err := discovery.ParseQuery(o.query)
	if err != nil {
		return err
	}
	q.K = resultK

	// discovery, by the path the engine would take: keyword-only queries
	// through the top-k processor, everything else through fusion.
	var msg *discovery.MSG
	var discoverUS float64
	if len(q.Keywords) > 0 && len(q.Structural) == 0 {
		// Twice: once to count allocations, once for the clock. A call this
		// short would otherwise be timed with the caches ReadMemStats's
		// stop-the-world just emptied.
		topK := func() error {
			_, ts, err := st.proc.TopKCtx(ctx, o.user, q.Keywords, resultK, topk.TA)
			st.work.Add(ts)
			if ts.EarlyTerminated {
				st.early++
			}
			return err
		}
		_, allocs, err := counted(topK)
		if err != nil {
			return err
		}
		topkUS, err := timed(topK)
		if err != nil {
			return err
		}
		st.add("topk.topk_us", topkUS)
		st.add("topk.allocs_per_query", allocs)
		discoverUS, err = timed(func() error {
			var err error
			msg, _, err = st.disc.DiscoverTaggedCtx(ctx, o.user, q, st.proc, topk.TA)
			return err
		})
		if err != nil {
			return err
		}
		st.add("discovery.tagged_self_us", discoverUS-topkUS)
	} else {
		var allocs float64
		discoverUS, allocs, err = counted(func() error {
			var err error
			msg, err = st.disc.Discover(o.user, q)
			return err
		})
		if err != nil {
			return err
		}
		st.add("discovery.fusion_us", discoverUS)
		st.add("discovery.fusion_allocs", allocs)
	}

	// presentation and related entities over that MSG. The inputs are
	// assembled outside the timers: in the engine that assembly belongs to
	// QueryCtx's own share.
	var items []graph.NodeID
	scores := make(map[graph.NodeID]float64)
	for _, r := range msg.Results {
		items = append(items, r.Item)
		scores[r.Item] = r.Score
	}
	var organizeUS, explainUS, relatedUS float64
	if len(items) > 0 { // QueryCtx skips all three for an empty result
		if organizeUS, err = timed(func() error {
			_, err := presentation.Organize(st.g, items, scores, presentation.OrganizeConfig{MaxGroups: 6, FacetAttr: "city"})
			return err
		}); err != nil {
			return err
		}
		explainUS, _ = timed(func() error {
			for _, it := range items {
				presentation.ExplainCF(st.g, o.user, it)
			}
			return nil
		})
		relatedUS, _ = timed(func() error {
			discovery.RelatedEntities(st.g, msg, 2, 5)
			return nil
		})
	}
	st.add("presentation.organize_us", organizeUS)
	st.add("presentation.explain_us", explainUS)
	st.add("discovery.related_us", relatedUS)

	// engine: the facade around all of the above.
	var resp *socialscope.Response
	queryUS, allocs, err := counted(func() error {
		var err error
		resp, err = st.eng.QueryCtx(ctx, o.user, q)
		return err
	})
	if err != nil {
		return err
	}
	st.add("engine.query_us", queryUS)
	st.add("engine.query_allocs", allocs)
	st.add("engine.query_self_us", queryUS-discoverUS-organizeUS-explainUS-relatedUS)

	// serve's wire shaping: response struct + JSON.
	var body []byte
	wireUS, err := timed(func() error {
		var sw *serve.QueryStatsWire
		if s := resp.Stats; s != nil {
			sw = &serve.QueryStatsWire{Strategy: s.Strategy.String(), PostingsScanned: s.PostingsScanned,
				ExactScores: s.ExactScores, Candidates: s.Candidates, EarlyTerminated: s.EarlyTerminated}
		}
		var err error
		body, err = json.Marshal(serve.SearchResponseFromEngine(st.eng, resp.Version, q, resp, sw))
		return err
	})
	if err != nil {
		return err
	}
	st.add("serve.wire_us", wireUS)
	st.add("serve.response_bytes", float64(len(body)))
	st.belowServeUS[i] = queryUS + wireUS
	return nil
}

// write prices a write one layer at a time: Apply on the in-memory
// engine, Apply on a durable engine (the difference is WAL append +
// fsync), and a bare wal.AppendSync of the same payload.
func (st *stairs) write(i int, o op) error {
	if st.dur == nil {
		var err error
		if st.dir, err = os.MkdirTemp(st.outDir, "stairs-"); err != nil {
			return err
		}
		// CheckpointEvery 0: checkpoints happen only where report times them.
		st.dur, err = socialscope.OpenDurable(filepath.Join(st.dir, "engine"), st.g,
			engineConfig(socialscope.TopKTA, obs.NewRegistry()), socialscope.DurableOptions{})
		if err != nil {
			return err
		}
		if _, err = st.dur.SearchCtx(context.Background(), st.corpus.Users[0], probeQuery); err != nil {
			return err
		}
		if st.log, err = wal.Open(vfs.OS{}, filepath.Join(st.dir, "wal"), wal.Options{Obs: obs.NewRegistry()}); err != nil {
			return err
		}
	}
	memUS, err := timed(func() error { return st.eng.Apply(o.muts) })
	if err != nil {
		return err
	}
	durUS, err := timed(func() error { return st.dur.Apply(o.muts) })
	if err != nil {
		return err
	}
	payload := graph.AppendMutations(nil, o.muts)
	walUS, err := timed(func() error {
		_, err := st.log.AppendSync(1, payload)
		return err
	})
	if err != nil {
		return fmt.Errorf("scratch wal: %w", err)
	}
	st.add("engine.apply_mem_us", memUS)
	st.add("engine.apply_durable_us", durUS)
	st.add("wal.append_sync_us", walUS)
	st.applyUS[i] = durUS
	return nil
}

// report sets every staircase metric to the median of its per-op
// series (0 for a layer no op went through) and times the checkpoints.
func (st *stairs) report(ms *metricSet) error {
	for _, name := range []string{
		"topk.topk_us", "topk.allocs_per_query", "discovery.tagged_self_us", "discovery.fusion_us",
		"discovery.fusion_allocs", "presentation.organize_us", "presentation.explain_us", "discovery.related_us",
		"engine.query_us", "engine.query_allocs", "engine.query_self_us", "engine.recommend_us",
		"serve.wire_us", "serve.response_bytes", "engine.apply_mem_us", "engine.apply_durable_us", "wal.append_sync_us",
	} {
		ms.set(name, median(st.series[name]))
	}
	// Every tagged query went through the processor twice (see search).
	perQuery := func(v int) float64 { return share(float64(v), 2*float64(len(st.series["topk.topk_us"]))) }
	ms.set("topk.postings_per_query", perQuery(st.work.PostingsScanned))
	ms.set("topk.exact_scores_per_query", perQuery(st.work.ExactScores))
	ms.set("topk.candidates_per_query", perQuery(st.work.Candidates))
	ms.set("topk.early_terminated_share", perQuery(st.early))

	if st.dur == nil {
		ms.set("store.checkpoint_ms", 0)
		return nil
	}
	// Checkpoints, each covering checkpointEvery fresh batches as the
	// automatic one does. The first clears the backlog of the steps above.
	if err := st.dur.Checkpoint(); err != nil {
		return err
	}
	stream, err := workload.NewTaggingStream(st.dur.Graph(), st.corpus.Users, st.corpus.Destinations, workload.Categories, 1)
	if err != nil {
		return err
	}
	var ckptMS []float64
	for round := 0; round < recoverRepeats; round++ {
		for b := 0; b < checkpointEvery; b++ {
			if err := st.dur.Apply(stream.Batch(writeBatch)); err != nil {
				return err
			}
		}
		us, err := timed(st.dur.Checkpoint)
		if err != nil {
			return err
		}
		ckptMS = append(ckptMS, us/1e3)
	}
	ms.set("store.checkpoint_ms", median(ckptMS))
	return nil
}

func (st *stairs) close() {
	if st.dur != nil {
		st.log.Close()
		st.dur.Close()
		os.RemoveAll(st.dir)
	}
}
