// Package serve is SocialScope's query-serving subsystem: an HTTP JSON
// front end over the facade Engine that turns the storage layer's RCU
// snapshots, O(delta) live updates and transient bulk mutation into
// end-to-end request latency. It comprises
//
//   - handlers for /search, /query, /recommend, /apply, /stats (engine
//     facts) and /healthz with per-request deadlines and graceful
//     shutdown (server.go), plus /metrics, the one view of every
//     serving counter and gauge (observe.go);
//   - a snapshot-version-keyed result cache with singleflight
//     deduplication of concurrent identical misses — invalidation is
//     free, a version bump from Apply orphans old entries and the first
//     store at the new version frees them (cache.go);
//   - a write coalescer that buffers incoming mutation batches and
//     flushes them as one Engine.Apply, with a ticker bounding flush
//     latency (coalesce.go);
//   - an admission limiter with queue-depth metrics (limit.go);
//   - an append encoder that writes computed /search, /query and
//     /recommend bodies straight from the engine's answer (encode.go).
//
// This file defines the JSON wire types. Clients decode with them
// (cmd/ssquery -addr, the bench/ ledger), and json.Marshal of the shaped
// structs (SearchResponseFromEngine, RecommendResponse) is the append
// encoder's test oracle; the read path itself never reflects over them.
package serve

import (
	"fmt"
	"strconv"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
)

// NodeWire is a graph node on the wire; the shape matches the graph's
// JSON encoding (Encode/Decode), so corpora and mutations speak one
// dialect.
type NodeWire struct {
	ID    graph.NodeID        `json:"id"`
	Types []string            `json:"types,omitempty"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

// LinkWire is a graph link on the wire.
type LinkWire struct {
	ID    graph.LinkID        `json:"id"`
	Src   graph.NodeID        `json:"src"`
	Tgt   graph.NodeID        `json:"tgt"`
	Types []string            `json:"types,omitempty"`
	Attrs map[string][]string `json:"attrs,omitempty"`
}

// MutationWire is one graph mutation on the wire. Op is the changelog
// kind's string form: add-node, put-node, add-link, put-link,
// remove-node, remove-link. Node is set for node ops, Link for link ops;
// Prev optionally carries the pre-merge state of a put-link.
type MutationWire struct {
	Op   string    `json:"op"`
	Node *NodeWire `json:"node,omitempty"`
	Link *LinkWire `json:"link,omitempty"`
	Prev *LinkWire `json:"prev,omitempty"`
}

func (w NodeWire) node() *graph.Node {
	n := graph.NewNode(w.ID, w.Types...)
	if w.Attrs != nil {
		n.Attrs = graph.AttrsFromMap(w.Attrs)
	}
	return n
}

func (w LinkWire) link() *graph.Link {
	l := graph.NewLink(w.ID, w.Src, w.Tgt, w.Types...)
	if w.Attrs != nil {
		l.SetAttrs(graph.AttrsFromMap(w.Attrs))
	}
	return l
}

// NodeToWire and LinkToWire convert graph elements for transmission.
func NodeToWire(n *graph.Node) NodeWire {
	return NodeWire{ID: n.ID, Types: n.Types, Attrs: n.Attrs.Map()}
}

func LinkToWire(l *graph.Link) LinkWire {
	return LinkWire{ID: l.ID, Src: l.Src, Tgt: l.Tgt, Types: l.Types(), Attrs: l.Attrs().Map()}
}

// MutationToWire converts a changelog entry for transmission.
func MutationToWire(m graph.Mutation) MutationWire {
	w := MutationWire{Op: m.Kind.String()}
	if m.Node != nil {
		nw := NodeToWire(m.Node)
		w.Node = &nw
	}
	if m.Link != nil {
		lw := LinkToWire(m.Link)
		w.Link = &lw
	}
	if m.Prev != nil {
		pw := LinkToWire(m.Prev)
		w.Prev = &pw
	}
	return w
}

// Mutation converts the wire form back into a changelog entry.
func (w MutationWire) Mutation() (graph.Mutation, error) {
	var kind graph.MutationKind
	switch w.Op {
	case graph.MutAddNode.String():
		kind = graph.MutAddNode
	case graph.MutPutNode.String():
		kind = graph.MutPutNode
	case graph.MutAddLink.String():
		kind = graph.MutAddLink
	case graph.MutPutLink.String():
		kind = graph.MutPutLink
	case graph.MutRemoveNode.String():
		kind = graph.MutRemoveNode
	case graph.MutRemoveLink.String():
		kind = graph.MutRemoveLink
	default:
		return graph.Mutation{}, fmt.Errorf("serve: unknown mutation op %q", w.Op)
	}
	m := graph.Mutation{Kind: kind}
	switch kind {
	case graph.MutAddNode, graph.MutPutNode, graph.MutRemoveNode:
		if w.Node == nil {
			return graph.Mutation{}, fmt.Errorf("serve: %s mutation without node", w.Op)
		}
		m.Node = w.Node.node()
	default:
		if w.Link == nil {
			return graph.Mutation{}, fmt.Errorf("serve: %s mutation without link", w.Op)
		}
		m.Link = w.Link.link()
		if w.Prev != nil {
			m.Prev = w.Prev.link()
		}
	}
	return m, nil
}

// QueryRequest is the body of POST /query (and the parameter set of
// GET /search). Query uses the search-box syntax of discovery.ParseQuery;
// K and Alpha override the parser defaults when positive / non-nil.
type QueryRequest struct {
	User  graph.NodeID `json:"user"`
	Query string       `json:"query"`
	K     int          `json:"k,omitempty"`
	Alpha *float64     `json:"alpha,omitempty"`
}

// ResultWire is one ranked result.
type ResultWire struct {
	Item        graph.NodeID   `json:"item"`
	Name        string         `json:"name,omitempty"`
	Score       float64        `json:"score"`
	Semantic    float64        `json:"semantic"`
	Social      float64        `json:"social"`
	Endorsers   []graph.NodeID `json:"endorsers,omitempty"`
	Explanation string         `json:"explanation,omitempty"`
}

// GroupWire is one presentation group.
type GroupWire struct {
	Label   string         `json:"label"`
	Items   []graph.NodeID `json:"items"`
	Quality float64        `json:"quality"`
}

// GroupingWire is the chosen grouping of the presentation layer.
type GroupingWire struct {
	Criterion string      `json:"criterion,omitempty"`
	Groups    []GroupWire `json:"groups,omitempty"`
}

// RelatedWire is Example 3's onward exploration payload.
type RelatedWire struct {
	Topics []RelatedEntryWire `json:"topics,omitempty"`
	Users  []RelatedEntryWire `json:"users,omitempty"`
}

// RelatedEntryWire is one related entity with its result-set count.
type RelatedEntryWire struct {
	ID    graph.NodeID `json:"id"`
	Name  string       `json:"name,omitempty"`
	Count int          `json:"count"`
}

// QueryStatsWire is the work report of an index-backed evaluation.
type QueryStatsWire struct {
	Strategy        string `json:"strategy"`
	PostingsScanned int    `json:"postings_scanned"`
	ExactScores     int    `json:"exact_scores"`
	Candidates      int    `json:"candidates"`
	EarlyTerminated bool   `json:"early_terminated"`
}

// SearchResponse is the body of /search and /query answers. It is
// deterministic for a given engine state and query — maps are avoided in
// favor of ordered slices — so the cached and uncached paths produce
// byte-identical bodies.
type SearchResponse struct {
	Version uint64          `json:"version"`
	Query   string          `json:"query"`
	Basis   string          `json:"basis,omitempty"`
	Results []ResultWire    `json:"results"`
	Groups  GroupingWire    `json:"grouping"`
	Related RelatedWire     `json:"related"`
	Stats   *QueryStatsWire `json:"stats,omitempty"`
}

// SearchResponseFromEngine shapes a facade Response for the wire. Every
// name — items, related topics and related users — resolves against the
// snapshot the MSG was discovered over, the one version stamps, never the
// engine's current graph. The server writes its bodies with the append
// encoder; json.Marshal of this shape is the bytes it must produce.
func SearchResponseFromEngine(_ *socialscope.Engine, version uint64,
	q discovery.Query, resp *socialscope.Response, stats *QueryStatsWire) SearchResponse {
	name := func(id graph.NodeID) string {
		if n := resp.MSG.Snapshot.Node(id); n != nil {
			return n.Attrs.Get("name")
		}
		return ""
	}
	out := SearchResponse{
		Version: version,
		Query:   q.String(),
		Basis:   resp.MSG.Basis.Kind.String(),
		Results: make([]ResultWire, 0, len(resp.MSG.Results)),
		Stats:   stats,
	}
	for i, r := range resp.MSG.Results {
		out.Results = append(out.Results, ResultWire{
			Item:        r.Item,
			Name:        name(r.Item),
			Score:       r.Score,
			Semantic:    r.Semantic,
			Social:      r.Social,
			Endorsers:   r.Endorsers,
			Explanation: resp.Summaries[i],
		})
	}
	out.Groups.Criterion = resp.Presentation.Chosen.Criterion
	for _, grp := range resp.Presentation.Chosen.Groups {
		out.Groups.Groups = append(out.Groups.Groups, GroupWire{
			Label: grp.Label, Items: grp.Items, Quality: grp.Quality,
		})
	}
	for _, rt := range resp.Related.Topics {
		out.Related.Topics = append(out.Related.Topics, RelatedEntryWire{
			ID: rt.Topic, Name: name(rt.Topic), Count: rt.Count,
		})
	}
	for _, ru := range resp.Related.Users {
		out.Related.Users = append(out.Related.Users, RelatedEntryWire{
			ID: ru.User, Name: name(ru.User), Count: ru.Count,
		})
	}
	return out
}

// RecommendationWire is one collaborative-filtering recommendation.
type RecommendationWire struct {
	Item  graph.NodeID   `json:"item"`
	Name  string         `json:"name,omitempty"`
	Score float64        `json:"score"`
	Basis []graph.NodeID `json:"basis,omitempty"`
}

// RecommendResponse is the body of /recommend answers.
type RecommendResponse struct {
	Version         uint64               `json:"version"`
	User            graph.NodeID         `json:"user"`
	Variant         string               `json:"variant"`
	Recommendations []RecommendationWire `json:"recommendations"`
}

// ApplyRequest is the body of POST /apply: a batch of mutations to fold
// into the live engine. The server coalesces concurrent batches before
// applying (see Coalescer), so the response's Coalesced reports how many
// requests shared the flush that carried this one.
type ApplyRequest struct {
	Mutations []MutationWire `json:"mutations"`
}

// ApplyResponse reports the outcome of an apply: the engine version
// after the flush that carried the batch, and how the flush was shaped.
type ApplyResponse struct {
	Version   uint64 `json:"version"`
	Applied   int    `json:"applied"`   // mutations in this request
	Coalesced int    `json:"coalesced"` // requests that shared the flush
	Batched   int    `json:"batched"`   // mutations in the whole flush
}

// StatsResponse is the body of /stats: the engine facts no metric
// series carries. Max ids let remote writers allocate fresh element ids
// without a round trip per element. Every serving counter and gauge is
// on /metrics instead (docs/observability.md).
type StatsResponse struct {
	Version   uint64       `json:"version"`
	MaxNodeID graph.NodeID `json:"max_node_id"`
	MaxLinkID graph.LinkID `json:"max_link_id"`
	UptimeSec float64      `json:"uptime_sec"`
}

// Response and request header names shared by the server, the router
// (internal/route) and the remote clients. Kept here so all tiers speak
// one dialect.
const (
	// HeaderVersion carries the engine snapshot version a body was
	// evaluated against — the currency of monotonic-read tokens.
	HeaderVersion = "X-SS-Version"
	// HeaderCache reports the result-cache outcome (hit/miss/shared/bypass).
	HeaderCache = "X-SS-Cache"
	// HeaderMinVersion is the client's monotonic-read token: the lowest
	// snapshot version an answer may be evaluated against.
	HeaderMinVersion = "X-SS-Min-Version"
	// HeaderStale marks a degraded answer that could not satisfy the
	// requested min-version within the staleness budget ("true").
	HeaderStale = "X-SS-Stale"
	// HeaderRetryAfterMs is the millisecond-precision sibling of the
	// standard Retry-After header (whose granularity is whole seconds —
	// useless for a router backing off tens of milliseconds).
	HeaderRetryAfterMs = "X-SS-Retry-After-Ms"
	// HeaderTrace is the per-request trace annex. A client opts in by
	// sending the header (any value) on the request; the response comes
	// back with the span's compact JSON annex — strategy, snapshot
	// version, cache outcome, postings scanned, per-stage latencies —
	// under the same header. The router forwards the request header
	// downstream and relays the response annex back unchanged.
	HeaderTrace = "X-SS-Trace"
)

// HealthResponse is the body of /healthz.
type HealthResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
	// Role is "leader" for engines that accept writes and "follower"
	// for read replicas tailing a leader's WAL (see /promote).
	Role string `json:"role"`
	// Lag is the follower's replication lag in confirmed-but-unapplied
	// WAL records; absent on leaders. Zero means caught up to everything
	// the leader has confirmed (the unconfirmed tail record is bounded
	// staleness, not lag).
	Lag *uint64 `json:"lag,omitempty"`
}

// PromoteResponse is the body of POST /promote.
type PromoteResponse struct {
	Role    string `json:"role"`
	Version uint64 `json:"version"`
}

// ErrorResponse is the body every non-2xx answer carries.
type ErrorResponse struct {
	Error string `json:"error"`
}

// NormalizeQuery renders the cache-key form of a parsed query: the
// canonical string (tokenized keywords, ordered predicates) plus the
// result-shaping parameters, so two textual spellings of the same
// evaluation share one cache entry and different k or α never collide.
func NormalizeQuery(q discovery.Query) string {
	s := q.String()
	b := make([]byte, 0, len(s)+32)
	b = append(b, s...)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, "|a="...)
	b = strconv.AppendFloat(b, q.Alpha, 'g', -1, 64)
	return string(b)
}
