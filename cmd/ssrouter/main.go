// Command ssrouter fronts a leader + N follower ssserve instances with
// SocialScope's fault-tolerant read router: health-check-driven
// membership, budgeted retries with jittered backoff, hedged requests,
// per-backend circuit breakers, a monotonic-read consistency token with
// explicit stale degradation, and automatic leader failover via
// POST /promote.
//
// Usage:
//
//	ssrouter -addr :8090 -backends localhost:8080,localhost:8081,localhost:8082
//
// Endpoints (proxied): /search, /query, /recommend, /apply, /stats.
// Router-local: GET /healthz (router health), GET /routerz (routing
// view: token, leader, backends), GET /metrics (Prometheus text
// exposition, the one view of the fault-handling counters).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"socialscope/internal/obs"
	"socialscope/internal/route"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	backends := flag.String("backends", "", "comma-separated ssserve addresses (host:port or URLs); roles are discovered")
	tryTimeout := flag.Duration("trytimeout", route.DefaultTryTimeout, "per-try deadline against one backend")
	retries := flag.Int("retries", route.DefaultRetries, "retries after a failed try (0 = no retries)")
	hedge := flag.Bool("hedge", true, "hedge slow reads to a second backend")
	hedgeQ := flag.Float64("hedgequantile", route.DefaultHedgeQuantile, "latency quantile that triggers a hedge")
	healthEvery := flag.Duration("healthevery", route.DefaultHealthEvery, "health-check interval")
	staleWait := flag.Duration("stalewait", route.DefaultStalenessWait, "budget for satisfying the read token before serving stale")
	failover := flag.Bool("failover", true, "promote a follower automatically when the leader dies")
	failoverAfter := flag.Int("failoverafter", route.DefaultFailoverAfter, "consecutive failed leader health checks that trigger failover")
	breakerFails := flag.Int("breakerfails", route.DefaultBreakerFails, "consecutive failures that open a backend's circuit")
	breakerCool := flag.Duration("breakercooldown", route.DefaultBreakerCooldown, "open-circuit cooldown before a half-open probe")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	if *backends == "" {
		fail(fmt.Errorf("-backends is required (comma-separated ssserve addresses)"))
	}
	var list []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			list = append(list, b)
		}
	}

	r, err := route.New(route.Config{
		Backends:        list,
		TryTimeout:      *tryTimeout,
		Retries:         *retries,
		NoRetries:       *retries == 0,
		DisableHedging:  !*hedge,
		HedgeQuantile:   *hedgeQ,
		HealthEvery:     *healthEvery,
		StalenessWait:   *staleWait,
		DisableFailover: !*failover,
		FailoverAfter:   *failoverAfter,
		BreakerFails:    *breakerFails,
		BreakerCooldown: *breakerCool,
		Obs:             obs.Default,
		EnablePprof:     *pprofFlag,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ssrouter: "+format+"\n", args...)
		},
	})
	if err != nil {
		fail(err)
	}
	defer r.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	leader := "none"
	if l := r.Leader(); l != nil {
		leader = l.Host
	}
	fmt.Fprintf(os.Stderr, "ssrouter: routing %d backends on http://%s (leader %s)\n",
		len(list), ln.Addr(), leader)

	srv := &http.Server{Handler: r.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "ssrouter: %v — closing\n", s)
		_ = srv.Close()
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fail(err)
		}
	}
	fmt.Fprintln(os.Stderr, "ssrouter: bye")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "ssrouter: %v\n", err)
	os.Exit(1)
}
