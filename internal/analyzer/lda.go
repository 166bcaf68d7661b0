// Package analyzer implements SocialScope's Content Analyzer (Section 3):
// the off-line analyses that derive new nodes (topics) and links (belong,
// match) from the raw social content graph. The paper names Latent
// Dirichlet Allocation [8] and association rule mining [3] as the canonical
// analyses; both are implemented here from scratch on the standard library,
// plus the user-similarity derivation that Examples 2 and 5 rely on.
package analyzer

import (
	"fmt"
	"math/rand"
	"sort"

	"socialscope/internal/graph"
	"socialscope/internal/scoring"
)

// LDAConfig parameterizes the collapsed Gibbs sampler.
type LDAConfig struct {
	Topics     int     // number of latent topics K
	Alpha      float64 // document-topic Dirichlet prior (default 50/K)
	Beta       float64 // topic-word Dirichlet prior (default 0.01)
	Iterations int     // Gibbs sweeps (default 200)
	Seed       int64   // RNG seed; runs are deterministic per seed
}

func (c *LDAConfig) fill() error {
	if c.Topics <= 0 {
		return fmt.Errorf("analyzer: LDA requires Topics > 0, got %d", c.Topics)
	}
	if c.Alpha <= 0 {
		c.Alpha = 50.0 / float64(c.Topics)
	}
	if c.Beta <= 0 {
		c.Beta = 0.01
	}
	if c.Iterations <= 0 {
		c.Iterations = 200
	}
	return nil
}

// LDAModel is the fitted model: counts sufficient to produce the
// topic-word and document-topic distributions.
type LDAModel struct {
	Config   LDAConfig
	Vocab    []string // index → term
	vocabIdx map[string]int

	docs  [][]int // token streams as vocab indexes
	z     [][]int // topic assignment per token
	nw    [][]int // topic × word counts
	nd    [][]int // doc × topic counts
	nwSum []int   // tokens per topic
	ndSum []int   // tokens per doc
}

// FitLDA runs collapsed Gibbs sampling over the documents (each a slice of
// terms) and returns the fitted model. Empty documents are allowed and
// simply receive the uniform prior.
func FitLDA(docs [][]string, cfg LDAConfig) (*LDAModel, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("analyzer: LDA requires at least one document")
	}
	m := &LDAModel{Config: cfg, vocabIdx: make(map[string]int)}
	for _, d := range docs {
		row := make([]int, 0, len(d))
		for _, term := range d {
			idx, ok := m.vocabIdx[term]
			if !ok {
				idx = len(m.Vocab)
				m.vocabIdx[term] = idx
				m.Vocab = append(m.Vocab, term)
			}
			row = append(row, idx)
		}
		m.docs = append(m.docs, row)
	}
	if len(m.Vocab) == 0 {
		return nil, fmt.Errorf("analyzer: LDA requires a non-empty vocabulary")
	}

	k, v := cfg.Topics, len(m.Vocab)
	m.nw = make([][]int, k)
	for t := range m.nw {
		m.nw[t] = make([]int, v)
	}
	m.nd = make([][]int, len(m.docs))
	m.nwSum = make([]int, k)
	m.ndSum = make([]int, len(m.docs))
	m.z = make([][]int, len(m.docs))

	rng := rand.New(rand.NewSource(cfg.Seed))
	for d, doc := range m.docs {
		m.nd[d] = make([]int, k)
		m.z[d] = make([]int, len(doc))
		for i, w := range doc {
			t := rng.Intn(k)
			m.z[d][i] = t
			m.nw[t][w]++
			m.nd[d][t]++
			m.nwSum[t]++
			m.ndSum[d]++
		}
	}

	probs := make([]float64, k)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for d, doc := range m.docs {
			for i, w := range doc {
				old := m.z[d][i]
				m.nw[old][w]--
				m.nd[d][old]--
				m.nwSum[old]--

				var total float64
				for t := 0; t < k; t++ {
					p := (float64(m.nd[d][t]) + cfg.Alpha) *
						(float64(m.nw[t][w]) + cfg.Beta) /
						(float64(m.nwSum[t]) + cfg.Beta*float64(v))
					probs[t] = p
					total += p
				}
				u := rng.Float64() * total
				t := 0
				for acc := probs[0]; acc < u && t < k-1; {
					t++
					acc += probs[t]
				}

				m.z[d][i] = t
				m.nw[t][w]++
				m.nd[d][t]++
				m.nwSum[t]++
			}
		}
	}
	return m, nil
}

// TopicWord returns φ[t][w]: the smoothed probability of word w in topic t.
func (m *LDAModel) TopicWord(t, w int) float64 {
	v := float64(len(m.Vocab))
	return (float64(m.nw[t][w]) + m.Config.Beta) / (float64(m.nwSum[t]) + m.Config.Beta*v)
}

// DocTopic returns θ[d][t]: the smoothed probability of topic t in doc d.
func (m *LDAModel) DocTopic(d, t int) float64 {
	k := float64(m.Config.Topics)
	return (float64(m.nd[d][t]) + m.Config.Alpha) / (float64(m.ndSum[d]) + m.Config.Alpha*k)
}

// TopTerms returns the n highest-probability terms of topic t.
func (m *LDAModel) TopTerms(t, n int) []string {
	type tw struct {
		w int
		p float64
	}
	all := make([]tw, len(m.Vocab))
	for w := range m.Vocab {
		all[w] = tw{w, m.TopicWord(t, w)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].p != all[j].p {
			return all[i].p > all[j].p
		}
		return m.Vocab[all[i].w] < m.Vocab[all[j].w]
	})
	n = min(n, len(all))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = m.Vocab[all[i].w]
	}
	return out
}

// DominantTopic returns the most probable topic of document d.
func (m *LDAModel) DominantTopic(d int) int {
	best, bestP := 0, -1.0
	for t := 0; t < m.Config.Topics; t++ {
		if p := m.DocTopic(d, t); p > bestP {
			best, bestP = t, p
		}
	}
	return best
}

// DeriveTopics runs LDA over the searchable text of the nodes carrying
// nodeType, then materializes the analysis into the graph the way the
// paper's Content Analyzer does: one new node of type 'topic' per latent
// topic (named by its top terms) and one 'belong' link from each document
// node to its dominant topic, weighted by the document-topic probability.
// It returns a new graph, sharing the input's storage copy-on-write (the
// input is not mutated), plus the model.
func DeriveTopics(g *graph.Graph, nodeType string, cfg LDAConfig) (*graph.Graph, *LDAModel, error) {
	var docNodes []*graph.Node
	var docs [][]string
	for _, n := range g.Nodes() {
		if n.HasType(nodeType) {
			docNodes = append(docNodes, n)
			docs = append(docs, scoring.Tokenize(n.Text()))
		}
	}
	if len(docNodes) == 0 {
		return nil, nil, fmt.Errorf("analyzer: no nodes of type %q to analyze", nodeType)
	}
	model, err := FitLDA(docs, cfg)
	if err != nil {
		return nil, nil, err
	}
	out := g.ShallowClone()
	out.BeginBulk() // out is private until returned; sealed below
	ids := graph.IDSourceFor(out)
	topicNodes := make([]graph.NodeID, cfg.Topics)
	for t := 0; t < cfg.Topics; t++ {
		tn := graph.NewNode(ids.NextNode(), graph.TypeTopic)
		terms := model.TopTerms(t, 3)
		tn.Attrs.Set("name", fmt.Sprintf("topic-%d", t))
		tn.Attrs.Set("terms", terms...)
		if err := out.AddNode(tn); err != nil {
			return nil, nil, err
		}
		topicNodes[t] = tn.ID
	}
	for d, n := range docNodes {
		t := model.DominantTopic(d)
		bl := graph.NewLink(ids.NextLink(), n.ID, topicNodes[t], graph.TypeBelong)
		bl.Attrs.SetFloat("weight", model.DocTopic(d, t))
		if err := out.AddLink(bl); err != nil {
			return nil, nil, err
		}
	}
	out.EndBulk()
	return out, model, nil
}
