package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"socialscope"
	"socialscope/internal/obs"
	"socialscope/internal/route"
	"socialscope/internal/serve"
	"socialscope/internal/workload"
)

// engineConfig is the one engine configuration every workload serves.
func engineConfig(strategy socialscope.TopKStrategy, reg *obs.Registry) socialscope.Config {
	return socialscope.Config{
		ItemType: "destination", TopK: strategy, ClusterStrategy: "peruser", Obs: reg,
	}
}

const (
	followPoll   = 50 * time.Millisecond // ssserve -follow's default
	requestLimit = 2 * time.Second       // serve.Config's default deadline; slower ops count as failed
	probeQuery   = "museum family"       // forces the index build in set-up, and the recovery probe
)

// backend is one serve.Server on its own loopback listener.
type backend struct {
	eng  *socialscope.Engine
	srv  *serve.Server
	http *http.Server
	ln   net.Listener
	reg  *obs.Registry
}

func (b *backend) addr() string { return b.ln.Addr().String() }

// startBackend serves eng the way cmd/ssserve does (serve.Config{}
// defaults), optionally with a span wrapper around the handler.
func startBackend(eng *socialscope.Engine, reg *obs.Registry, tr *tracer) (*backend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(eng, serve.Config{Obs: reg})
	b := &backend{eng: eng, srv: srv, ln: ln, reg: reg}
	b.http = &http.Server{Handler: tr.wrapHandler("serve.handler", srv.Handler())}
	go b.http.Serve(ln)
	return b, nil
}

func (b *backend) stop() {
	shutdown(b.http)
	b.srv.Close() // flushes and stops the write coalescer
}

func shutdown(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		s.Close()
	}
}

// rig is one workload's serving topology, built fresh by every set-up:
// an in-memory or durable leader, and for routed workloads a follower
// replica on the same directory behind a route.Router.
type rig struct {
	wl     *workloadDef
	corpus *workload.TravelCorpus
	leader *backend
	fol    *backend
	router *route.Router
	rtHTTP *http.Server
	rtLn   net.Listener
	rtReg  *obs.Registry
	rtXprt *http.Transport
	dir    string // durable directory, "" for in-memory workloads
	base   string // URL clients send to

	followStop chan struct{}
	followWG   sync.WaitGroup
	// replication figures, written by the follow loop, read after stopRig
	catchupUS  []float64
	lagRecsMax int
}

// newRig is the set-up a workload pays before it can serve: corpus,
// engine (genesis checkpoint included when durable), cluster + index
// build forced by one tagged query, listeners, follower and router.
func newRig(wl *workloadDef, seed int64, outDir string, tr *tracer) (r *rig, err error) {
	r = &rig{wl: wl}
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	if r.corpus, err = newCorpus(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	var eng *socialscope.Engine
	if wl.durable {
		if r.dir, err = os.MkdirTemp(outDir, "durable-"); err != nil {
			return nil, err
		}
		eng, err = socialscope.OpenDurable(r.dir, r.corpus.Graph, engineConfig(socialscope.TopKTA, reg),
			socialscope.DurableOptions{CheckpointEvery: checkpointEvery})
	} else {
		eng, err = socialscope.New(r.corpus.Graph, engineConfig(socialscope.TopKTA, reg))
	}
	if err != nil {
		return nil, err
	}
	if _, err = eng.SearchCtx(context.Background(), r.corpus.Users[0], probeQuery); err != nil {
		return nil, err
	}
	if r.leader, err = startBackend(eng, reg, tr); err != nil {
		return nil, err
	}
	r.base = "http://" + r.leader.addr()
	if !wl.routed {
		return r, nil
	}

	folReg := obs.NewRegistry()
	folEng, err := socialscope.OpenFollower(r.dir, engineConfig(socialscope.TopKTA, folReg), socialscope.DurableOptions{})
	if err != nil {
		return nil, err
	}
	if _, err = folEng.SearchCtx(context.Background(), r.corpus.Users[0], probeQuery); err != nil {
		return nil, err
	}
	if r.fol, err = startBackend(folEng, folReg, tr); err != nil {
		return nil, err
	}
	r.followStop = make(chan struct{})
	r.followWG.Add(1)
	go r.followLoop()

	r.rtReg = obs.NewRegistry()
	r.rtXprt = http.DefaultTransport.(*http.Transport).Clone()
	r.router, err = route.New(route.Config{
		Backends: []string{r.leader.addr(), r.fol.addr()},
		Client:   &http.Client{Transport: tr.wrapTransport("route.backend_rt", r.rtXprt)},
		Seed:     seed,
		Obs:      r.rtReg,
	})
	if err != nil {
		return nil, err
	}
	if r.rtLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	r.rtHTTP = &http.Server{Handler: tr.wrapHandler("route.handler", r.router.Handler())}
	go r.rtHTTP.Serve(r.rtLn)
	r.base = "http://" + r.rtLn.Addr().String()
	return r, nil
}

// followLoop tails the leader every followPoll, as ssserve -follow
// does, timing each catch-up that had records to apply.
func (r *rig) followLoop() {
	defer r.followWG.Done()
	t := time.NewTicker(followPoll)
	defer t.Stop()
	for {
		select {
		case <-r.followStop:
			return
		case <-t.C:
		}
		start := time.Now()
		n, err := r.fol.eng.CatchUp(0)
		if err != nil || n == 0 {
			continue // transient: the leader is mid-rotation or idle; the next tick retries
		}
		r.catchupUS = append(r.catchupUS, float64(time.Since(start).Nanoseconds())/1e3)
		if n > r.lagRecsMax {
			r.lagRecsMax = n
		}
	}
}

// stop tears the topology down front to back and removes the durable
// directory. Safe on a partly built rig.
func (r *rig) stop() {
	if r.rtHTTP != nil {
		shutdown(r.rtHTTP)
	} else if r.rtLn != nil {
		r.rtLn.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	if r.rtXprt != nil {
		r.rtXprt.CloseIdleConnections()
	}
	if r.followStop != nil {
		close(r.followStop)
		r.followWG.Wait()
	}
	if r.fol != nil {
		r.fol.stop()
	}
	if r.leader != nil {
		r.leader.stop()
		r.leader.eng.Close() // releases the WAL handle; the directory is removed next
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// copyDir copies the durable tree as a crash would leave it: whatever
// the leader has written so far, without Close's final checkpoint.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return fmt.Errorf("copy %s: not a regular file", p)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// The leader deletes superseded checkpoints and WAL segments
			// while we walk; a vanished file simply no longer counts.
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
