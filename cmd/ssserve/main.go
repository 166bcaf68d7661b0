// Command ssserve runs the SocialScope query-serving subsystem: an HTTP
// JSON server over a live Engine, with a snapshot-version-keyed result
// cache, write coalescing into batched Engine.Apply calls, admission
// control and graceful shutdown. It is the request-serving front end of
// the paper's Figure 1 site architecture.
//
// Usage:
//
//	ssserve -addr :8080 -data travel.json
//	ssserve -addr :8080 -gen -users 500 -items 200 -topk ta
//	ssserve -addr :8080 -gen -durable /var/lib/socialscope
//	ssserve -addr :8081 -follow /var/lib/socialscope
//
// Endpoints:
//
//	GET  /search?user=ID&q=QUERY[&k=N][&alpha=A][&nocache=1]
//	POST /query      {"user":ID,"query":"...","k":N,"alpha":A}
//	GET  /recommend?user=ID[&variant=stepwise|pattern]
//	POST /apply      {"mutations":[{"op":"add-link","link":{...}},...]}
//	POST /promote    (follower only: become the writable leader)
//	GET  /stats      (version, max node/link ids, uptime)
//	GET  /healthz
//	GET  /metrics    (every counter and gauge, Prometheus text; see docs/observability.md)
//
// /search and /query refuse k over 1000 and query text over 4096 bytes
// with 400.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish (bounded by
// -drain), buffered writes flush, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"socialscope"
	"socialscope/internal/graph"
	"socialscope/internal/serve"
	"socialscope/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "JSON graph file (from ssgen); empty with -gen generates one")
	gen := flag.Bool("gen", false, "generate a travel corpus instead of loading")
	users := flag.Int("users", 200, "generated users (with -gen)")
	items := flag.Int("items", 80, "generated destinations (with -gen)")
	seed := flag.Int64("seed", 42, "generator seed")
	itemType := flag.String("itemtype", "destination", "node type of candidate results")
	analyze := flag.Bool("analyze", false, "run the content analyzer before serving")
	topkFlag := flag.String("topk", "ta", "keyword-query strategy: off|exhaustive|ta|nra")
	clusterStrat := flag.String("cluster", "peruser", "index clustering: peruser|network|behavior|hybrid|global")
	theta := flag.Float64("theta", 0.3, "clustering similarity threshold")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain bound")
	cacheSize := flag.Int("cachesize", serve.DefaultCacheEntries, "result cache entries (0 = default)")
	noCache := flag.Bool("nocache", false, "disable the result cache")
	flush := flag.Duration("flush", serve.DefaultFlushInterval, "write-coalescer flush interval")
	maxBatch := flag.Int("maxbatch", serve.DefaultMaxBatch, "buffered mutations that flush the write coalescer without waiting for -flush")
	maxConc := flag.Int("maxconc", serve.DefaultMaxConcurrent, "admitted concurrent requests")
	maxQueue := flag.Int("maxqueue", serve.DefaultMaxQueue, "admission queue depth")
	durableDir := flag.String("durable", "", "durability directory (WAL + checkpoints); empty = in-memory only")
	ckptEvery := flag.Int("ckptevery", 64, "with -durable: checkpoint after this many applied batches (0 = only on shutdown)")
	follow := flag.String("follow", "", "follow a leader's durability directory as a read-only replica (POST /promote to take over)")
	followPoll := flag.Duration("followpoll", 50*time.Millisecond, "with -follow: leader WAL/manifest poll interval")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceLog := flag.Int("tracelog", 0, "log a structured trace line for 1-in-N requests (0 = off)")
	flag.Parse()

	strat, err := socialscope.ParseTopKStrategy(*topkFlag)
	if err != nil {
		fail(err)
	}
	cfg := socialscope.Config{
		ItemType:        *itemType,
		TopK:            strat,
		ClusterStrategy: *clusterStrat,
		ClusterTheta:    *theta,
	}
	var eng *socialscope.Engine
	switch {
	case *follow != "":
		// A follower's entire state comes from the leader's checkpoints
		// and WAL: no graph is loaded, and analysis arrives by replaying
		// the leader's analyze record rather than running locally.
		if *durableDir != "" {
			fail(fmt.Errorf("-follow and -durable are mutually exclusive (a replica tails the leader's directory)"))
		}
		if *analyze {
			fail(fmt.Errorf("-follow replicates analysis from the leader; drop -analyze"))
		}
		eng, err = socialscope.OpenFollower(*follow, cfg, socialscope.DurableOptions{})
		if err == nil {
			fmt.Fprintf(os.Stderr, "ssserve: following %s from version %d (poll %v)\n",
				*follow, eng.Version(), *followPoll)
		}
	case *durableDir != "":
		// On a fresh directory the loaded/generated graph seeds the durable
		// state; on an existing one it is ignored — the engine resumes from
		// its checkpoints and WAL at the exact version it last acknowledged.
		var g *graph.Graph
		g, err = loadGraph(*data, *gen, *users, *items, *seed)
		if err != nil {
			fail(err)
		}
		eng, err = socialscope.OpenDurable(*durableDir, g, cfg, socialscope.DurableOptions{
			CheckpointEvery: *ckptEvery,
		})
		if err == nil {
			fmt.Fprintf(os.Stderr, "ssserve: durable in %s, recovered version %d\n",
				*durableDir, eng.Version())
		}
	default:
		var g *graph.Graph
		g, err = loadGraph(*data, *gen, *users, *items, *seed)
		if err != nil {
			fail(err)
		}
		eng, err = socialscope.New(g, cfg)
	}
	if err != nil {
		fail(err)
	}
	if *follow != "" {
		go followLoop(eng, *followPoll)
	}
	if *analyze && !eng.Analyzed() {
		fmt.Fprintln(os.Stderr, "ssserve: analyzing...")
		if err := eng.Analyze(); err != nil {
			fail(err)
		}
	}

	srv := serve.New(eng, serve.Config{
		RequestTimeout: *timeout,
		CacheEntries:   *cacheSize,
		DisableCache:   *noCache,
		FlushInterval:  *flush,
		MaxBatch:       *maxBatch,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		EnablePprof:    *pprofFlag,
		TraceLogEvery:  *traceLog,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "ssserve: serving %s on http://%s (topk=%s cluster=%s cache=%v)\n",
		eng.Graph(), ln.Addr(), strat, *clusterStrat, !*noCache)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ssserve: %v — draining...\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fail(err)
		}
		<-done // http.ErrServerClosed
		// Writes are flushed; seal the durable state with a final checkpoint.
		if err := eng.Close(); err != nil {
			fail(err)
		}
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
	fmt.Fprintln(os.Stderr, "ssserve: bye")
}

// followLoop tails the leader until the engine stops being a follower
// (POST /promote) or the process exits. The poll interval is the base
// of a jittered exponential backoff: consecutive failed polls — the
// leader mid-rotation, a checkpoint truncation racing the poll, a dead
// leader — double the wait (±25% jitter) up to a cap, and any
// successful poll resets it, so a healthy replica tails tightly while a
// broken one stops hammering a directory that cannot answer.
func followLoop(eng *socialscope.Engine, every time.Duration) {
	const maxBackoffFactor = 32
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	wait := every
	for {
		// Full-period jitter on the backoff tail only: ±25% keeps replicas
		// from thundering in lockstep after a leader hiccup.
		d := wait
		if wait > every {
			d = wait - wait/4 + time.Duration(rng.Int63n(int64(wait)/2+1))
		}
		time.Sleep(d)
		if !eng.IsFollower() {
			return
		}
		if _, err := eng.CatchUp(0); err != nil {
			if !eng.IsFollower() {
				return // lost the race with /promote; not an error
			}
			if wait < every*maxBackoffFactor {
				wait *= 2
			}
			fmt.Fprintf(os.Stderr, "ssserve: catch-up: %v (retrying in ~%v)\n", err, wait)
			continue
		}
		wait = every
	}
}

func loadGraph(path string, gen bool, users, items int, seed int64) (*graph.Graph, error) {
	if gen || path == "" {
		corpus, err := workload.Travel(workload.TravelConfig{
			Users: users, Destinations: items, Seed: seed,
			VisitsPerUser: 8, TagFraction: 0.8,
		})
		if err != nil {
			return nil, err
		}
		return corpus.Graph, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Decode(f)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ssserve: %v\n", err)
	os.Exit(1)
}
