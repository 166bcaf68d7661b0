package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"socialscope/internal/graph"
	"socialscope/internal/serve"
	"socialscope/internal/workload"
)

// The data every workload serves is part of the workload's definition,
// like a database image: one corpus and one hot set, whatever --seed is.
// A read costs from 2 to 20 ms depending on whose results it explains,
// and Zipf puts a fifth of the hot reads on the first pair alone, so a
// hot set redrawn per seed would make each seed a different workload.
// --seed drives the traffic: who asks what in which order, and what the
// writes write.
const (
	dataSeed           = 42
	corpusUsers        = 600
	corpusDestinations = 200
	hotPairs           = 512 // fits the 4096-entry result cache 8 times over
	zipfS              = 1.1
	writeBatch         = 8   // mutations per /apply
	writeShare         = 0.2 // of the mixed workloads' ops
	checkpointEvery    = 20  // Apply batches per automatic checkpoint
	resultK            = 10
)

func newCorpus() (*workload.TravelCorpus, error) {
	return workload.Travel(workload.TravelConfig{
		Users: corpusUsers, Destinations: corpusDestinations,
		VisitsPerUser: 8, TagFraction: 0.8, Seed: dataSeed,
	})
}

type opKind uint8

const (
	opSearch opKind = iota
	opRecommend
	opApply
)

func (k opKind) read() bool { return k != opApply }

// op is one generated request: everything the client needs to send it
// and everything the checks need to replay it against an engine.
type op struct {
	kind  opKind
	user  graph.NodeID
	query string // search-box text of an opSearch
	// path is the request URI of a read (nocache already folded in).
	path string
	// body is the JSON of an opApply; muts and links are the same batch
	// for direct replay and for the acked-writes-present check.
	body []byte
	muts []graph.Mutation
}

// workloadDef is one traffic mix. Topology flags say which rig serves
// it; next draws the workload's next op.
type workloadDef struct {
	name    string
	durable bool // leader opened with OpenDurable, produces recover_s
	routed  bool // clients talk to a route.Router over leader + follower
	// tracedOps is the fixed op count of the single-client traced pass.
	tracedOps int
	next      func(g *generator) op
}

var workloads = []*workloadDef{
	{name: "tagged_cold", tracedOps: 300, next: (*generator).coldSearch},
	{name: "tagged_hot", tracedOps: 1000, next: (*generator).hotSearch},
	{name: "fusion_mix", tracedOps: 80, next: (*generator).fusion},
	{name: "durable_mixed", durable: true, tracedOps: 300, next: (*generator).mixed},
	{name: "routed_mixed", durable: true, routed: true, tracedOps: 300, next: (*generator).mixed},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type hotPair struct {
	user  graph.NodeID
	query string
}

// generator draws one client's op sequence. Everything random about a
// run's traffic flows from --seed through here; the program under test
// only ever sees the generated requests.
type generator struct {
	wl     *workloadDef
	rng    *rand.Rand
	zipf   *rand.Zipf
	users  []graph.NodeID
	hot    []hotPair
	stream *workload.TaggingStream // shared by a run's clients: link ids must not collide
}

// newGenerators builds one generator per client over the corpus. The
// hot set and the write stream are shared; each client has its own rng.
func newGenerators(wl *workloadDef, corpus *workload.TravelCorpus, seed int64, clients int) ([]*generator, error) {
	hotRng := rand.New(rand.NewSource(dataSeed))
	hot := make([]hotPair, hotPairs)
	for i := range hot {
		hot[i] = hotPair{
			user:  corpus.Users[hotRng.Intn(len(corpus.Users))],
			query: tagQuery(hotRng),
		}
	}
	stream, err := workload.NewTaggingStream(corpus.Graph, corpus.Users, corpus.Destinations,
		workload.Categories, seed)
	if err != nil {
		return nil, err
	}
	gens := make([]*generator, clients)
	for c := range gens {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
		gens[c] = &generator{
			wl: wl, rng: rng, users: corpus.Users, hot: hot, stream: stream,
			zipf: rand.NewZipf(rng, zipfS, 1, hotPairs-1),
		}
	}
	return gens, nil
}

func (g *generator) next() op { return g.wl.next(g) }

// tagQuery draws 1–3 distinct category tags in random order. Order is
// part of the cache key, so 600 users × 820 ordered tuples ≈ 492k keys.
func tagQuery(rng *rand.Rand) string {
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(workload.Categories))[:n]
	tags := make([]string, n)
	for i, p := range perm {
		tags[i] = workload.Categories[p]
	}
	return strings.Join(tags, " ")
}

func searchOp(user graph.NodeID, query string, nocache bool) op {
	v := url.Values{"user": {strconv.FormatInt(int64(user), 10)}, "q": {query}, "k": {strconv.Itoa(resultK)}}
	if nocache {
		v.Set("nocache", "1")
	}
	return op{kind: opSearch, user: user, query: query, path: "/search?" + v.Encode()}
}

func (g *generator) uniformUser() graph.NodeID { return g.users[g.rng.Intn(len(g.users))] }

func (g *generator) coldSearch() op { return searchOp(g.uniformUser(), tagQuery(g.rng), false) }

func (g *generator) hotSearch() op {
	p := g.hot[g.zipf.Uint64()]
	return searchOp(p.user, p.query, false)
}

// fusion draws the reads that bypass top-k: structural, empty, and CF.
// All carry nocache=1: their natural key space (600 users) would fill
// the cache mid-run and turn the workload from miss into hit.
func (g *generator) fusion() op {
	user := g.uniformUser()
	switch r := g.rng.Float64(); {
	case r < 0.6:
		tag := workload.Categories[g.rng.Intn(len(workload.Categories))]
		rating := 0.3 + 0.1*float64(g.rng.Intn(6))
		return searchOp(user, fmt.Sprintf("%s type:destination rating>=%.1f", tag, rating), true)
	case r < 0.8:
		return searchOp(user, "", true)
	default:
		v := url.Values{"user": {strconv.FormatInt(int64(user), 10)}, "nocache": {"1"}}
		return op{kind: opRecommend, user: user, path: "/recommend?" + v.Encode()}
	}
}

func (g *generator) mixed() op {
	if g.rng.Float64() >= writeShare {
		return g.hotSearch()
	}
	muts := g.stream.Batch(writeBatch)
	req := serve.ApplyRequest{Mutations: make([]serve.MutationWire, len(muts))}
	for i, m := range muts {
		req.Mutations[i] = serve.MutationToWire(m)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // wire structs of strings and ints always marshal
	}
	return op{kind: opApply, body: body, muts: muts}
}
