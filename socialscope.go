// Package socialscope is the public facade of the SocialScope
// reproduction (Amer-Yahia, Lakshmanan, Yu: "SocialScope: Enabling
// Information Discovery on Social Content Sites", CIDR 2009).
//
// It wires the paper's three layers end-to-end (Figure 1):
//
//   - Content Management (internal/federation, internal/graph) keeps the
//     social content graph;
//   - Information Discovery (internal/core — the algebra, internal/analyzer,
//     internal/discovery) derives topics off-line and answers queries with
//     semantically and socially relevant results (the MSG);
//   - Information Presentation (internal/presentation) groups, ranks, and
//     explains the results.
//
// The Engine type is the integration point a downstream application uses:
//
//	corpus, _ := workload.Travel(workload.TravelConfig{Users: 100, Destinations: 50, Seed: 1})
//	eng, _ := socialscope.New(corpus.Graph, socialscope.Config{})
//	_ = eng.Analyze()
//	resp, _ := eng.SearchCtx(context.Background(), corpus.Users[0], "denver attractions")
//
// Commonly needed graph types are re-exported so simple applications need
// only this package.
package socialscope

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"socialscope/internal/analyzer"
	"socialscope/internal/cluster"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/index"
	"socialscope/internal/obs"
	"socialscope/internal/presentation"
	"socialscope/internal/topk"
)

// Re-exported graph vocabulary so applications can construct and address
// social content graphs through the facade alone.
type (
	// Graph is the social content graph (Section 4's data model).
	Graph = graph.Graph
	// Builder constructs site graphs fluently.
	Builder = graph.Builder
	// NodeID addresses a node.
	NodeID = graph.NodeID
	// LinkID addresses a link.
	LinkID = graph.LinkID
	// Node is an entity: user, item, topic or group.
	Node = graph.Node
	// Link is a connection or activity.
	Link = graph.Link
	// Mutation is one changelog entry of a graph write operation; batches
	// of them drive Engine.Apply.
	Mutation = graph.Mutation
	// Changelog accumulates mutations from recorded graph writes (see
	// graph.RecordInto); drain it into Engine.Apply to keep a live engine
	// current.
	Changelog = graph.Changelog
)

// NewGraph returns an empty social content graph.
func NewGraph() *Graph { return graph.New() }

// NewBuilder returns a fluent graph builder.
func NewBuilder() *Builder { return graph.NewBuilder() }

// Basic node and link types of the paper's catalog.
const (
	TypeUser    = graph.TypeUser
	TypeItem    = graph.TypeItem
	TypeTopic   = graph.TypeTopic
	TypeGroup   = graph.TypeGroup
	TypeConnect = graph.TypeConnect
	TypeAct     = graph.TypeAct
	TypeMatch   = graph.TypeMatch
	TypeBelong  = graph.TypeBelong

	SubtypeFriend = graph.SubtypeFriend
	SubtypeTag    = graph.SubtypeTag
	SubtypeVisit  = graph.SubtypeVisit
	SubtypeReview = graph.SubtypeReview
)

// TopKStrategy selects how keyword-only queries are evaluated: through the
// fusion path (off) or through the Section 6.2 activity-driven index with
// one of the internal/topk processors.
type TopKStrategy uint8

const (
	// TopKOff keeps the default BM25 + social-basis fusion path.
	TopKOff TopKStrategy = iota
	// TopKExhaustive scores every item through the index substrate — the
	// ground-truth baseline.
	TopKExhaustive
	// TopKTA runs the threshold algorithm with immediate random access.
	TopKTA
	// TopKNRA runs the deferred-random-access flavor.
	TopKNRA
)

func (s TopKStrategy) String() string {
	switch s {
	case TopKOff:
		return "off"
	case TopKExhaustive:
		return "exhaustive"
	case TopKTA:
		return "ta"
	case TopKNRA:
		return "nra"
	}
	return "unknown"
}

// ParseTopKStrategy maps a strategy name (off, exhaustive, ta, nra)
// back to a TopKStrategy.
func ParseTopKStrategy(name string) (TopKStrategy, error) {
	for _, s := range []TopKStrategy{TopKOff, TopKExhaustive, TopKTA, TopKNRA} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("socialscope: unknown top-k strategy %q", name)
}

func (s TopKStrategy) internal() topk.Strategy {
	switch s {
	case TopKTA:
		return topk.TA
	case TopKNRA:
		return topk.NRA
	}
	return topk.Exhaustive
}

// SearchStats is the query-work report of an index-backed search: the
// currency in which Section 6.2 prices index designs.
type SearchStats struct {
	Strategy        TopKStrategy
	PostingsScanned int  // sorted accesses into the posting lists
	ExactScores     int  // exact rescoring computations (random accesses)
	Candidates      int  // distinct items considered
	EarlyTerminated bool // the processor stopped before draining its lists
	// SnapshotVersion is the engine state version whose index snapshot
	// answered the query. It tracks Engine.Version(): bumped by every
	// Apply batch and by Analyze, and monotone across lazy index
	// rebuilds.
	SnapshotVersion uint64
}

// Config parameterizes an Engine.
type Config struct {
	// ItemType scopes which nodes are search candidates (default "item").
	ItemType string
	// Topics is the LDA topic count used by Analyze (default 4).
	Topics int
	// MatchThreshold is the Jaccard threshold for derived match links
	// (default 0.5, the paper's Example 5 value).
	MatchThreshold float64
	// Seed drives the analyzer's sampler (default 1).
	Seed int64
	// MaxGroups bounds the presentation (default 6).
	MaxGroups int
	// FacetAttr is the structural-grouping attribute (default "city").
	FacetAttr string
	// TopK routes keyword-only queries through the activity-driven index
	// with the selected early-termination strategy (default TopKOff: the
	// fusion path).
	TopK TopKStrategy
	// ClusterStrategy names the user clustering the index is built with:
	// peruser, network, behavior, hybrid or global (default "peruser",
	// whose stored scores are exact).
	ClusterStrategy string
	// ClusterTheta is the clustering similarity threshold θ in [0,1]
	// (ignored by peruser and global).
	ClusterTheta float64
	// Obs selects the metrics registry the engine instruments into
	// (obs.Default when nil). Handles are resolved once at construction;
	// the hot query path performs only atomic updates.
	Obs *obs.Registry
}

// fill applies the defaults and rejects a strategy no query could run
// with, so a bad configuration fails at construction rather than at the
// first tagged query. It builds nothing: the index stays lazy.
func (c *Config) fill() error {
	if c.ItemType == "" {
		c.ItemType = graph.TypeItem
	}
	if c.Topics <= 0 {
		c.Topics = 4
	}
	if c.MatchThreshold <= 0 {
		c.MatchThreshold = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxGroups <= 0 {
		c.MaxGroups = 6
	}
	if c.FacetAttr == "" {
		c.FacetAttr = "city"
	}
	if c.ClusterStrategy == "" {
		c.ClusterStrategy = cluster.PerUser.String()
	}
	if c.TopK > TopKNRA {
		return fmt.Errorf("socialscope: unknown top-k strategy %d", c.TopK)
	}
	if _, err := cluster.ParseStrategy(c.ClusterStrategy); err != nil {
		return fmt.Errorf("socialscope: %w", err)
	}
	return nil
}

// engineState is one immutable snapshot of everything a query touches:
// the serving graph, the discoverer bound to it, and the lazily built
// index processor. Readers load it once per query and never see a torn
// version; writers (Analyze, Apply, the lazy index build) construct a
// successor under the writer lock and publish it atomically — the RCU
// discipline that lets Search run concurrently with Apply.
type engineState struct {
	// g is the serving graph: the base graph mutations land on, enriched
	// in place by Analyze.
	g *Graph
	// derived is the id ranges the last Analyze allocated, nil until then.
	// g without them is the base a re-Analyze derives from.
	derived *graph.Derived
	disc    *discovery.Discoverer
	proc    *topk.Processor // nil until the first tagged query
	version uint64          // bumped by Analyze and every Apply batch
}

func (s *engineState) derivedNode(id NodeID) bool {
	return s.derived != nil && s.derived.NodeLo <= id && id <= s.derived.NodeHi
}

func (s *engineState) derivedLink(id LinkID) bool {
	return s.derived != nil && s.derived.LinkLo <= id && id <= s.derived.LinkHi
}

// Engine is the end-to-end SocialScope system over one social content
// graph.
type Engine struct {
	cfg Config
	// mu serializes writers (Analyze, Apply, processor build); readers go
	// through the atomic state pointer and never block on it.
	mu    sync.Mutex
	state atomic.Pointer[engineState]
	// dur is the durability state (WAL + checkpointer) for engines opened
	// with OpenDurable, nil otherwise. Guarded by mu.
	dur *durable
	// fol is the replication state for engines opened with OpenFollower,
	// nil otherwise. Guarded by mu; Promote clears it and sets dur.
	fol *follower
	// isFol mirrors fol != nil for lock-free role checks: a health
	// endpoint must not block behind a long catch-up or analyze.
	isFol atomic.Bool
	// met holds the pre-resolved metric handles (see observe.go); set by
	// every constructor before the first state publish.
	met *engineMetrics
}

// IsFollower reports whether the engine is a read-only follower (opened
// with OpenFollower and not yet promoted). Safe to call concurrently
// with CatchUp and queries.
func (e *Engine) IsFollower() bool { return e.isFol.Load() }

// New builds an engine over the graph. The graph is used as-is (not
// copied) until the first Apply or Analyze, which switch the engine onto
// private copy-on-write versions of it.
func New(g *Graph, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("socialscope: nil graph")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, met: newEngineMetrics(cfg.Obs)}
	e.publish(&engineState{
		g:    g,
		disc: discovery.NewDiscoverer(g, cfg.ItemType),
	})
	return e, nil
}

// Graph returns the graph queries currently run against, which after
// Analyze holds the derived topics, belong links and match links too.
func (e *Engine) Graph() *Graph { return e.state.Load().g }

// Version returns the engine's state version: 0 at construction, bumped
// by Analyze and by every Apply batch.
func (e *Engine) Version() uint64 { return e.state.Load().version }

// Analyzed reports whether the serving graph carries analyzer-derived
// elements.
func (e *Engine) Analyzed() bool { return e.state.Load().derived != nil }

// Analyze runs the Content Analyzer: LDA topic derivation over the item
// nodes and Jaccard match derivation between users, materialized into the
// serving graph with ids allocated past the base graph's high-water marks.
// Idempotent: re-running first drops the elements the previous Analyze
// derived, then re-derives from what remains (the original graph plus any
// applied mutations).
func (e *Engine) Analyze() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fol != nil {
		return ErrFollower
	}
	return e.analyzeLocked(true)
}

// analyzeLocked is Analyze's body; callers hold e.mu. live is false
// during WAL replay, when the record driving this call is already
// durable and must not be re-logged.
func (e *Engine) analyzeLocked(live bool) error {
	st := e.state.Load()
	base := st.g
	if st.derived != nil {
		base = st.g.WithoutDerived(*st.derived)
	}
	withTopics, _, err := analyzer.DeriveTopics(base, e.cfg.ItemType, analyzer.LDAConfig{
		Topics: e.cfg.Topics, Seed: e.cfg.Seed, Alpha: 0.1,
	})
	if err != nil {
		return fmt.Errorf("socialscope: topic derivation: %w", err)
	}
	enriched := analyzer.DeriveMatches(withTopics, e.cfg.MatchThreshold)
	// The derivation is deterministic (seeded LDA over the base graph), so
	// the WAL marker carries no payload; replay re-derives. The record is
	// durable before the state is visible.
	if live {
		if err := e.logRecord(recAnalyze, nil); err != nil {
			return err
		}
	}
	e.publish(&engineState{
		g: enriched,
		derived: &graph.Derived{
			NodeLo: base.MaxNodeID() + 1, NodeHi: enriched.MaxNodeID(),
			LinkLo: base.MaxLinkID() + 1, LinkHi: enriched.MaxLinkID(),
		},
		disc:    discovery.NewDiscoverer(enriched, e.cfg.ItemType),
		proc:    nil, // the index must be rebuilt over the enriched graph
		version: st.version + 1,
	})
	return nil
}

// Apply folds a batch of graph mutations — typically drained from a
// graph.Changelog — into the live engine without a stop-the-world
// rebuild. The batch is applied atomically: the serving graph is advanced
// through copy-on-write clones, the activity-driven index absorbs the
// delta through index.ApplyDelta snapshots, and the new state is published
// in one atomic store. Queries already in flight keep reading the previous
// snapshot; queries starting after Apply returns see the whole batch.
//
// On error nothing is published and the engine keeps serving the prior
// state.
//
// Mutations must describe changes the engine has not seen: record them on
// a scratch copy of the site graph (graph.RecordInto over Clone), or
// construct them directly — never on the engine's own serving graph,
// which readers may be walking concurrently and whose contents the index
// may already reflect. Additions already present in the serving graph are
// rejected with an error rather than silently double-counted. After
// Analyze, so are adds and puts of ids Analyze derived and links to
// derived nodes, which may only be removed: allocate new ids with
// graph.IDSourceFor(eng.Graph()).
//
// Cost note: a batch costs O(delta) end-to-end. Graph and index storage
// is persistent (structurally shared), so the per-batch snapshots —
// graph ShallowClone, index substrate clone, posting-list index share —
// are O(1) header copies, and the remaining work is proportional to the
// mutations applied: touched trie paths, tag shards, posting lists and
// inner sets. The graph replay and the index delta each write through a
// transient window that copies a touched trie node once per batch; both
// windows are sealed before the new state is published. The discovery
// catalog is reused across batches that touch no item node (and rebuilt
// lazily otherwise), so nothing on this path scales with graph size.
// Batching still amortizes per-call constants, but one-mutation batches
// are no longer penalized by corpus-sized copies.
func (e *Engine) Apply(muts []graph.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fol != nil {
		return ErrFollower
	}
	return e.applyLocked(muts, true)
}

// applyLocked is Apply's body; callers hold e.mu. live is false during
// WAL replay, when the batch comes from an already-durable record and
// must not be re-logged.
func (e *Engine) applyLocked(muts []graph.Mutation, live bool) error {
	st := e.state.Load()
	g := st.g
	// Validate additions against the graph the batch will land on. IDs
	// already present — except ones an earlier mutation in this same
	// batch removes — are rejected loudly: replaying an absorbed change
	// would double-count its activity in the index's duplicate refcounts.
	// Duplicate additions *within* the batch are rejected for the same
	// reason: graph replay would silently consolidate the second add while
	// the index delta counted both — the shape two concurrent writers
	// produce when they allocate the same fresh id (e.g. both reading one
	// max-id snapshot) and their batches are coalesced.
	removedNodes := make(map[NodeID]bool)
	removedLinks := make(map[LinkID]bool)
	addedNodes := make(map[NodeID]bool)
	addedLinks := make(map[LinkID]bool)
	const present = "the engine's graph — record mutations on a scratch copy (graph.RecordInto over Clone), not on the serving graph"
	for i, m := range muts {
		if err := st.derivedWrite(i, m); err != nil {
			return err
		}
		switch m.Kind {
		case graph.MutRemoveNode:
			if m.Node != nil {
				removedNodes[m.Node.ID] = true
				delete(addedNodes, m.Node.ID)
			}
		case graph.MutRemoveLink:
			if m.Link != nil {
				removedLinks[m.Link.ID] = true
				delete(addedLinks, m.Link.ID)
			}
		case graph.MutAddLink:
			if m.Link == nil {
				continue
			}
			if addedLinks[m.Link.ID] {
				return fmt.Errorf("socialscope: apply: mutation %d adds link %d already added earlier "+
					"in the batch — concurrent writers must allocate distinct ids", i, m.Link.ID)
			}
			if removedLinks[m.Link.ID] {
				delete(removedLinks, m.Link.ID)
				addedLinks[m.Link.ID] = true
				continue
			}
			if g.HasLink(m.Link.ID) {
				return fmt.Errorf("socialscope: apply: mutation %d adds link %d already present in %s",
					i, m.Link.ID, present)
			}
			addedLinks[m.Link.ID] = true
		case graph.MutAddNode:
			if m.Node == nil {
				continue
			}
			if addedNodes[m.Node.ID] {
				return fmt.Errorf("socialscope: apply: mutation %d adds node %d already added earlier "+
					"in the batch — concurrent writers must allocate distinct ids", i, m.Node.ID)
			}
			if removedNodes[m.Node.ID] {
				delete(removedNodes, m.Node.ID)
				addedNodes[m.Node.ID] = true
				continue
			}
			if g.HasNode(m.Node.ID) {
				return fmt.Errorf("socialscope: apply: mutation %d adds node %d already present in %s",
					i, m.Node.ID, present)
			}
			addedNodes[m.Node.ID] = true
		case graph.MutPutNode:
			// Promoting an already-linked non-user node to user cannot be
			// maintained incrementally: the index would have to discover
			// the node's pre-existing connections and taggings, which
			// mutations do not carry. Reject rather than silently diverge
			// from a rebuild. Derived links (belong, match) carry neither.
			if m.Node == nil || !m.Node.HasType(graph.TypeUser) || removedNodes[m.Node.ID] {
				continue
			}
			base := func(l *Link) bool { return !st.derivedLink(l.ID) }
			if ex := g.Node(m.Node.ID); ex != nil && !ex.HasType(graph.TypeUser) &&
				(slices.ContainsFunc(g.Out(ex.ID), base) || slices.ContainsFunc(g.In(ex.ID), base)) {
				return fmt.Errorf("socialscope: apply: mutation %d promotes linked node %d to a user — "+
					"incremental maintenance cannot recover its existing links; rebuild instead "+
					"(new Engine or Analyze)", i, m.Node.ID)
			}
		case graph.MutPutLink:
			// Replay detection: a consolidation that records a real diff
			// (Prev != Link) but whose post-merge state the serving graph
			// already holds was applied before; replaying it would
			// double-count the diffed activities in the index refcounts.
			if m.Link == nil || m.Prev == nil || m.Prev.Equal(m.Link) || removedLinks[m.Link.ID] {
				continue
			}
			if ex := g.Link(m.Link.ID); ex != nil && ex.Equal(m.Link) {
				return fmt.Errorf("socialscope: apply: mutation %d replays consolidation of link %d "+
					"already absorbed by the engine — drain each changelog into Apply exactly once",
					i, m.Link.ID)
			}
		}
	}
	ns := &engineState{g: g.ShallowClone(), derived: st.derived, version: st.version + 1}
	if err := ns.g.ApplyAll(muts); err != nil {
		return fmt.Errorf("socialscope: apply: %w", err)
	}
	// Rebind discovery to the new serving graph. The item catalog is an
	// O(items) aggregate, so it is carried over (O(1)) unless the batch
	// touches a node it covers — the only thing that can change it.
	if batchTouchesItems(muts, g, e.cfg.ItemType) {
		ns.disc = discovery.NewDiscoverer(ns.g, e.cfg.ItemType)
	} else {
		ns.disc = st.disc.WithGraph(ns.g)
	}
	if st.proc != nil {
		proc, err := topk.New(st.proc.Index().ApplyDelta(g, muts), nil)
		if err != nil {
			return fmt.Errorf("socialscope: %w", err)
		}
		ns.proc = proc
	}
	// Durability barrier: the batch is on disk before the state readers
	// can observe becomes current. A WAL failure leaves the engine on the
	// prior state; the log heals its tail on the next append.
	if live {
		if err := e.logRecord(recBatch, graph.AppendMutations(nil, muts)); err != nil {
			return err
		}
	}
	e.publish(ns)
	e.met.applies.Inc()
	e.met.applyBatch.Observe(float64(len(muts)))
	e.maybeCheckpointLocked()
	return nil
}

// derivedWrite rejects mutation i when it adds or puts an id the last
// Analyze derived, or links a derived node. A re-Analyze derives from the
// serving graph without those ids, so such a write would be lost, or
// re-use an id the analyzer held before a cascade removed it.
func (s *engineState) derivedWrite(i int, m graph.Mutation) error {
	var what string
	switch m.Kind {
	case graph.MutAddNode, graph.MutPutNode:
		if m.Node != nil && s.derivedNode(m.Node.ID) {
			what = fmt.Sprintf("writes node %d, an id", m.Node.ID)
		}
	case graph.MutAddLink, graph.MutPutLink:
		switch l := m.Link; {
		case l == nil:
		case s.derivedLink(l.ID):
			what = fmt.Sprintf("writes link %d, an id", l.ID)
		case s.derivedNode(l.Src):
			what = fmt.Sprintf("links node %d, which", l.Src)
		case s.derivedNode(l.Tgt):
			what = fmt.Sprintf("links node %d, which", l.Tgt)
		}
	}
	if what == "" {
		return nil
	}
	return fmt.Errorf("socialscope: apply: mutation %d %s Analyze derived — derived elements can only be "+
		"removed; allocate fresh ids past graph.IDSourceFor(eng.Graph())", i, what)
}

// batchTouchesItems reports whether any mutation in the batch adds,
// consolidates or removes a node carrying the engine's item type or
// graph.TypeItem — the nodes the discovery catalog covers, so the only
// mutations that can change it. The payload's types are not enough: a
// partial consolidation (or a bare removal) may target an existing item
// node without re-stating its types, so the node's resident state in the
// pre-batch graph is consulted too.
func batchTouchesItems(muts []graph.Mutation, g *Graph, itemType string) bool {
	isItem := func(n *graph.Node) bool {
		return n != nil && (n.HasType(itemType) || n.HasType(graph.TypeItem))
	}
	for _, m := range muts {
		switch m.Kind {
		case graph.MutAddNode, graph.MutPutNode, graph.MutRemoveNode:
			if m.Node != nil && (isItem(m.Node) || isItem(g.Node(m.Node.ID))) {
				return true
			}
		}
	}
	return false
}

// ensureProcessor returns a state whose index processor is built, lazily
// constructing the activity-driven index over the current graph on first
// use.
func (e *Engine) ensureProcessor() (*engineState, error) {
	if st := e.state.Load(); st.proc != nil {
		return st, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.state.Load()
	if st.proc != nil { // raced with another builder
		return st, nil
	}
	strat, err := cluster.ParseStrategy(e.cfg.ClusterStrategy)
	if err != nil {
		return nil, fmt.Errorf("socialscope: %w", err)
	}
	cl, err := cluster.Build(st.g, strat, e.cfg.ClusterTheta)
	if err != nil {
		return nil, fmt.Errorf("socialscope: clustering: %w", err)
	}
	ix, err := index.Build(index.Extract(st.g), cl, nil)
	if err != nil {
		return nil, fmt.Errorf("socialscope: index build: %w", err)
	}
	// Seed the fresh index with the engine's state version so query stats
	// keep reporting a monotone SnapshotVersion across lazy rebuilds
	// (Analyze discards the processor; Apply batches before the first
	// tagged query advance the state without an index to advance).
	proc, err := topk.New(ix.AtVersion(st.version), nil)
	if err != nil {
		return nil, fmt.Errorf("socialscope: %w", err)
	}
	ns := &engineState{
		g:       st.g,
		derived: st.derived,
		disc:    st.disc,
		proc:    proc,
		version: st.version,
	}
	e.publish(ns)
	return ns, nil
}

// Response is a complete answer: the MSG from the discovery layer and the
// organized presentation with per-item explanation summaries.
type Response struct {
	MSG          *discovery.MSG
	Presentation presentation.Presentation
	// Summaries holds each result's CF explanation summary ("60% of your
	// friends endorsed this item"), aligned with MSG.Results. The full
	// weighted Expl(u,i) is presentation.CFContext.Explain.
	Summaries []string
	// Related holds Example 3's onward exploration: topics and users
	// adjacent to the result set.
	Related discovery.Related
	// Stats is this evaluation's own work report when the query went
	// through the activity-driven index, nil otherwise. It belongs to this
	// response alone, so concurrent queries never see each other's
	// reports — the serving layer's response cache relies on that for
	// deterministic bodies.
	Stats *SearchStats
	// Version is the engine state version this response was evaluated
	// against — exact even when a concurrent Apply advances the engine
	// mid-evaluation, because the whole evaluation reads one snapshot.
	Version uint64
}

// Results returns the ranked discovery results.
func (r *Response) Results() []discovery.Result { return r.MSG.Results }

// SearchCtx parses and answers a query for the user: discovery followed
// by presentation. An empty query string yields pure social
// recommendations (the paper's empty-query semantics).
//
// The evaluation is abandoned with ctx.Err() once the context is
// cancelled — inside the index-backed top-k accumulation loops (see
// topk.TopKCtx), and on the fusion path at each stage boundary
// (discovery → presentation → per-item explanations) plus between
// explanations; the fusion scoring stage itself runs to completion. A serving layer's per-request deadline therefore bounds
// index-backed query work tightly and fusion work at stage granularity.
func (e *Engine) SearchCtx(ctx context.Context, user NodeID, query string) (*Response, error) {
	q, err := discovery.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return e.QueryCtx(ctx, user, q)
}

// QueryCtx answers a parsed query. Keyword-only queries go through the
// activity-driven index when Config.TopK selects a strategy; everything
// else (structural predicates, empty queries) uses the fusion path. The
// whole evaluation — discovery, presentation, explanations — reads one
// state snapshot, so a concurrent Apply can never show it half a batch.
// See SearchCtx for the cancellation contract.
func (e *Engine) QueryCtx(ctx context.Context, user NodeID, q discovery.Query) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.SpanFrom(ctx)
	st := e.state.Load()
	var msg *discovery.MSG
	var err error
	var evalStats *SearchStats
	discoverDone := sp.Stage("discovery")
	if e.cfg.TopK != TopKOff && len(q.Keywords) > 0 && len(q.Structural) == 0 {
		st, err = e.ensureProcessor()
		if err != nil {
			return nil, err
		}
		var ts topk.Stats
		msg, ts, err = st.disc.DiscoverTaggedCtx(ctx, user, q, st.proc, e.cfg.TopK.internal())
		if err != nil {
			return nil, err
		}
		evalStats = &SearchStats{
			Strategy:        e.cfg.TopK,
			PostingsScanned: ts.PostingsScanned,
			ExactScores:     ts.ExactScores,
			Candidates:      ts.Candidates,
			EarlyTerminated: ts.EarlyTerminated,
			SnapshotVersion: ts.SnapshotVersion,
		}
	} else {
		msg, err = st.disc.Discover(user, q)
	}
	if err != nil {
		return nil, err
	}
	discoverDone()
	e.recordQuery(sp, evalStats, st.version)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := st.g
	resp := &Response{
		MSG:     msg,
		Stats:   evalStats,
		Version: st.version,
	}
	if len(msg.Results) == 0 {
		return resp, nil
	}
	items := make([]NodeID, len(msg.Results))
	scores := make(map[NodeID]float64, len(msg.Results))
	for i, r := range msg.Results {
		items[i] = r.Item
		scores[r.Item] = r.Score
	}
	presentDone := sp.Stage("presentation")
	pres, err := presentation.Organize(g, items, scores, presentation.OrganizeConfig{
		MaxGroups: e.cfg.MaxGroups,
		FacetAttr: e.cfg.FacetAttr,
	})
	if err != nil {
		return nil, err
	}
	resp.Presentation = pres
	cf := presentation.NewCFContext(g, user)
	resp.Summaries = make([]string, len(items))
	for i, it := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp.Summaries[i] = cf.Summary(it)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp.Related = discovery.RelatedEntities(g, msg, 2, 5)
	presentDone()
	return resp, nil
}

// RecommendCtx runs pure collaborative filtering (Example 5) for the
// user, as discovery.CollaborativeFiltering's item-side plan: it reads only
// the adjacency of the user, the user's acted-on items and their
// co-actors, counts shared items in pooled scratch, builds no intermediate
// graph and no map, and returns exactly what the Example 5 algebra program
// (discovery.CollaborativeFilteringAlgebra) returns for either variant. The
// result is the caller's: it shares no memory with later calls. With no
// loop long enough to be worth interrupting, the context is checked once
// at the call boundary; the per-request deadline still rejects work that
// arrives already expired.
func (e *Engine) RecommendCtx(ctx context.Context, user NodeID, variant discovery.CFVariant) ([]discovery.Recommendation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return discovery.CollaborativeFiltering(e.Graph(), user, discovery.CFConfig{
		SimThreshold: e.cfg.MatchThreshold,
		Variant:      variant,
		ItemType:     e.cfg.ItemType,
	})
}
