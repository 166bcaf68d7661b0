package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"socialscope/internal/serve"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// span that caused this one (-1 for a client span); spans of one
// request share Op.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	// Note is the op class the checks and medians group by: "read" or
	// "write" on client spans, the X-SS-Cache outcome on serve.handler.
	Note string `json:"note,omitempty"`
}

// tracer records spans in memory from the benchmark's own seams —
// wrappers around handlers and round trippers, never code inside the
// program. A nil tracer records nothing and wraps nothing, so the timed
// runs execute exactly the production handler chain.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanHeader carries the parent span index across an HTTP hop; spanKey
// carries it through the router's request context to its outgoing tries.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Start: now, End: now, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, note string) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Note = note
	t.mu.Unlock()
}

func parentFromHeader(h http.Header) int {
	if p, err := strconv.Atoi(h.Get(spanHeader)); err == nil {
		return p
	}
	return -1
}

// wrapHandler times h under the span named name. The parent arrives in
// the request header; the span's own index continues in the request
// context, where a wrapped transport below (the router's) picks it up.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parentFromHeader(r.Header)
		if parent < 0 { // health probes and other untraced traffic
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name, parent, 0)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.end(id, w.Header().Get(serve.HeaderCache))
	})
}

type tracedTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

// wrapTransport times each round trip of next as a child of the span in
// the request's context, and forwards its own index to the next hop.
func (t *tracer) wrapTransport(name string, next http.RoundTripper) http.RoundTripper {
	if t == nil {
		return next
	}
	return &tracedTransport{t: t, name: name, next: next}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(int)
	if !ok {
		return tt.next.RoundTrip(req)
	}
	id := tt.t.begin(tt.name, parent, 0)
	req = req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := tt.next.RoundTrip(req)
	tt.t.end(id, "")
	return resp, err
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children — a hedged
// try beside the primary — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// clientComputedUS is the one figure layerFigures returns beside the
// metrics: the median client latency of the reads serve had to compute
// (cache miss or bypass), which the self times of a read should add up to.
const clientComputedUS = "client computed read"

// layerFigures reduces a replayed pass's spans to the per-layer
// medians, in µs. A wrapper sees its layer and everything below, so the
// layers below serve are taken out op by op with the staircase's
// figures for the very same op.
func layerFigures(spans []span, st *stairs) map[string]float64 {
	self := selfTimes(spans)
	groups := make(map[string][]float64)
	for i, s := range spans {
		root := i
		for spans[root].Parent >= 0 {
			root = spans[root].Parent
		}
		class := spans[root].Note // "read" or "write", from the client span
		dur, own := float64(s.End-s.Start)/1e3, float64(self[i])/1e3
		add := func(key string, v float64) { groups[key] = append(groups[key], v) }
		switch s.Name {
		case "client":
			if class == "read" {
				add("bench.http_self_us", own)
			}
		case "route.handler":
			add("route."+class+"_self_us", own)
		case "route.backend_rt":
			add("route.hop_us", own)
		case "serve.handler":
			switch {
			case class == "write":
				if apply, ok := st.applyUS[s.Op]; ok {
					add("serve.coalesce_wait_us", dur-apply)
				}
			case s.Note == "hit":
				add("serve.hit_us", dur)
			default: // miss or bypass: the handler computed the answer
				if below, ok := st.belowServeUS[s.Op]; ok {
					add("serve.handler_self_us", dur-below)
				}
				add(clientComputedUS, float64(spans[root].End-spans[root].Start)/1e3)
			}
		}
	}
	out := make(map[string]float64)
	for _, name := range []string{"bench.http_self_us", "route.read_self_us", "route.write_self_us", "route.hop_us",
		"serve.coalesce_wait_us", "serve.hit_us", "serve.handler_self_us", clientComputedUS} {
		out[name] = median(groups[name])
	}
	return out
}
