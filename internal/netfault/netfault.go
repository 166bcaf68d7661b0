// Package netfault is the network sibling of internal/vfs.FaultFS: a
// deterministic fault injector for HTTP transports. FaultTransport
// wraps an http.RoundTripper and makes every request to a backend one
// numbered "op" on that backend's own counter; faults are armed at op
// indices — fail, reset, delay, black-hole, serve-partial-body — or a
// whole backend is partitioned away, so every network failure mode a
// routing tier must survive is reproducible in-process, without
// listeners, timeouts tuned to real clocks, or packet filters.
//
// The idiom mirrors FaultFS deliberately: per-backend op counting gives
// a finite, enumerable fault-point space; a seedable Schedule draws a
// randomized-but-deterministic fault assignment over that space, so a
// chaos run that found a bug is re-runnable from its seed alone.
// Determinism holds when the driver is deterministic (sequential
// requests per backend); under concurrency the schedule stays valid but
// op→request assignment follows goroutine interleaving, which is
// exactly FaultFS's contract too.
package netfault

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// Injected fault errors. They satisfy errors.Is so routing layers can
// classify without string matching; all of them wrap ErrInjected.
var (
	// ErrInjected is the root of every netfault-produced error.
	ErrInjected = errors.New("netfault: injected fault")
	// ErrReset models a connection reset by peer mid-exchange: the
	// request may or may not have reached the backend.
	ErrReset = fmt.Errorf("%w: connection reset by peer", ErrInjected)
	// ErrRefused models a connection refused: the request never reached
	// the backend (safe to retry even for writes). It arrives inside a
	// dial *net.OpError, like a real refusal.
	ErrRefused = fmt.Errorf("%w: connection refused", ErrInjected)
)

// Kind enumerates the injectable failure modes.
type Kind int

const (
	// KindNone injects nothing (schedule filler).
	KindNone Kind = iota
	// KindFail fails the request before it is sent (connection refused).
	KindFail
	// KindReset forwards the request, discards the response, and returns
	// a reset error — the backend did the work, the caller never learns.
	KindReset
	// KindDelay holds the request for Delay before forwarding (bounded
	// by the request context: an expired context returns its error).
	KindDelay
	// KindBlackhole never answers: the call blocks until the request
	// context is done and returns its error. This is the op-scoped
	// sibling of Partition.
	KindBlackhole
	// KindPartial forwards the request but truncates the response body
	// after BodyBytes bytes, erroring the read mid-stream — the torn
	// tail of the network world.
	KindPartial
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindFail:
		return "fail"
	case KindReset:
		return "reset"
	case KindDelay:
		return "delay"
	case KindBlackhole:
		return "blackhole"
	case KindPartial:
		return "partial"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one armed failure.
type Fault struct {
	Kind Kind
	// Delay is the hold time for KindDelay.
	Delay time.Duration
	// BodyBytes is how much of the response body KindPartial lets
	// through before tearing the stream.
	BodyBytes int
}

// backendState is the per-backend fault ledger, keyed by URL host.
type backendState struct {
	ops         int64
	faults      map[int64]Fault // op index -> fault
	partitioned bool
	refused     bool
}

// Transport is the deterministic fault-injecting RoundTripper. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Transport struct {
	inner http.RoundTripper

	mu       sync.Mutex
	backends map[string]*backendState
}

// New wraps inner (nil means http.DefaultTransport) with fault
// injection. With no faults armed it is a transparent proxy.
func New(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, backends: make(map[string]*backendState)}
}

func (t *Transport) state(backend string) *backendState {
	b, ok := t.backends[backend]
	if !ok {
		b = &backendState{faults: make(map[int64]Fault)}
		t.backends[backend] = b
	}
	return b
}

// SetAt arms fault f at op index op on backend (a URL host, e.g.
// "127.0.0.1:8385"). Later SetAt calls on the same index overwrite.
func (t *Transport) SetAt(backend string, op int64, f Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(backend).faults[op] = f
}

// FailAt arms a connection-refused failure at op index op.
func (t *Transport) FailAt(backend string, op int64) {
	t.SetAt(backend, op, Fault{Kind: KindFail})
}

// ResetAt arms a connection reset at op index op.
func (t *Transport) ResetAt(backend string, op int64) {
	t.SetAt(backend, op, Fault{Kind: KindReset})
}

// DelayAt arms a hold of d at op index op.
func (t *Transport) DelayAt(backend string, op int64, d time.Duration) {
	t.SetAt(backend, op, Fault{Kind: KindDelay, Delay: d})
}

// BlackholeAt arms a never-answers at op index op.
func (t *Transport) BlackholeAt(backend string, op int64) {
	t.SetAt(backend, op, Fault{Kind: KindBlackhole})
}

// PartialAt arms a body truncation after n bytes at op index op.
func (t *Transport) PartialAt(backend string, op int64, n int) {
	t.SetAt(backend, op, Fault{Kind: KindPartial, BodyBytes: n})
}

// Partition drops the backend off the network: every request black-holes
// until the context expires, like a switch that ate the route. Heal
// reverses it.
func (t *Transport) Partition(backend string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(backend).partitioned = true
}

// Refuse makes the backend refuse connections immediately (a dead
// process with a live machine: kill -9 leaves this). Heal reverses it.
func (t *Transport) Refuse(backend string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(backend).refused = true
}

// Heal reconnects a partitioned or refusing backend. Armed per-op
// faults stay armed.
func (t *Transport) Heal(backend string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.state(backend)
	b.partitioned = false
	b.refused = false
}

// Ops returns the per-backend op counter — the fault-point space a
// chaos schedule enumerates.
func (t *Transport) Ops(backend string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state(backend).ops
}

// RoundTrip implements http.RoundTripper: consume one op on the
// request's backend, apply whatever is armed there, and otherwise
// forward to the inner transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	backend := req.URL.Host
	t.mu.Lock()
	b := t.state(backend)
	op := b.ops
	b.ops++
	fault := b.faults[op]
	partitioned, refused := b.partitioned, b.refused
	t.mu.Unlock()

	switch {
	case refused:
		return nil, refusedErr(backend, op)
	case partitioned:
		<-req.Context().Done()
		return nil, &faultErr{backend, op, fmt.Errorf("%w: partitioned: %w", ErrInjected, req.Context().Err())}
	}

	switch fault.Kind {
	case KindNone:
		return t.inner.RoundTrip(req)
	case KindFail:
		return nil, refusedErr(backend, op)
	case KindReset:
		resp, err := t.inner.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &faultErr{backend, op, ErrReset}
	case KindDelay:
		timer := time.NewTimer(fault.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, &faultErr{backend, op, fmt.Errorf("%w: delayed past deadline: %w", ErrInjected, req.Context().Err())}
		}
		return t.inner.RoundTrip(req)
	case KindBlackhole:
		<-req.Context().Done()
		return nil, &faultErr{backend, op, fmt.Errorf("%w: black-holed: %w", ErrInjected, req.Context().Err())}
	case KindPartial:
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remain: fault.BodyBytes,
			err: &faultErr{backend, op, fmt.Errorf("%w: body truncated after %d bytes: %w",
				ErrInjected, fault.BodyBytes, io.ErrUnexpectedEOF)}}
		return resp, nil
	default:
		return nil, &faultErr{backend, op, fmt.Errorf("%w: unknown fault kind %v", ErrInjected, fault.Kind)}
	}
}

// faultErr carries the backend and op index for diagnosability; a chaos
// failure names the exact injection point that triggered it.
type faultErr struct {
	backend string
	op      int64
	err     error
}

func (e *faultErr) Error() string {
	return fmt.Sprintf("%v (backend %s op %d)", e.err, e.backend, e.op)
}

func (e *faultErr) Unwrap() error { return e.err }

// refusedErr wraps ErrRefused in the shape of a real refused dial (a
// *net.OpError with Op "dial"), so callers classify injected and real
// refusals with one check.
func refusedErr(backend string, op int64) error {
	return &faultErr{backend, op, &net.OpError{Op: "dial", Net: "tcp", Err: ErrRefused}}
}

// truncatedBody lets remain bytes through, then fails the read and
// swallows the rest — the caller sees a mid-stream connection tear, not
// a clean EOF (which would look like a complete short response).
type truncatedBody struct {
	inner  io.ReadCloser
	remain int
	err    error
	done   bool
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.done || b.remain <= 0 {
		b.done = true
		return 0, b.err
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= n
	if err == io.EOF {
		// The real body ended inside the allowance: pass the clean EOF.
		return n, err
	}
	if b.remain <= 0 {
		b.done = true
		if err == nil {
			err = b.err
		}
	}
	return n, err
}

func (b *truncatedBody) Close() error {
	io.Copy(io.Discard, b.inner)
	return b.inner.Close()
}

// Err reports whether err (anywhere in its chain) was injected by a
// Transport.
func Err(err error) bool { return errors.Is(err, ErrInjected) }
