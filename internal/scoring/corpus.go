package scoring

import (
	"math"

	"socialscope/internal/graph"
)

// Corpus holds document statistics over a set of texts (typically the
// searchable text of every node of a given type in a social content graph).
// It supports tf-idf and BM25 scoring of keyword queries against documents,
// providing the paper's "semantic relevance" leg.
type Corpus struct {
	docCount  int
	docFreq   map[string]int
	totalLen  int
	avgDocLen float64
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{docFreq: make(map[string]int)}
}

// AddDoc folds one document's text into the corpus statistics.
func (c *Corpus) AddDoc(text string) { c.Add(NewDoc(text)) }

// Add folds one tokenized document into the corpus statistics.
func (c *Corpus) Add(d Doc) {
	c.docCount++
	c.totalLen += d.length
	for _, t := range d.terms {
		c.docFreq[t]++
	}
	c.avgDocLen = float64(c.totalLen) / float64(c.docCount)
}

// NodeCorpus builds a corpus from the searchable text of the nodes that
// carry nodeType ("" means every node), skipping the others.
func NodeCorpus(g *graph.Graph, nodeType string) *Corpus {
	c := NewCorpus()
	for _, n := range g.Nodes() {
		if nodeType == "" || n.HasType(nodeType) {
			c.AddDoc(n.Text())
		}
	}
	return c
}

// DocCount returns the number of documents folded in.
func (c *Corpus) DocCount() int { return c.docCount }

// DocFreq returns in how many documents the term occurs.
func (c *Corpus) DocFreq(term string) int { return c.docFreq[term] }

// IDF returns the smoothed inverse document frequency of the term:
// ln(1 + (N - df + 0.5)/(df + 0.5)), the BM25+ formulation, which stays
// positive for terms present in every document.
func (c *Corpus) IDF(term string) float64 {
	df := float64(c.docFreq[term])
	n := float64(c.docCount)
	return math.Log(1 + (n-df+0.5)/(df+0.5))
}

// TFIDF scores a document's text against query keywords: sum over query
// terms of tf * idf, normalized by document length. Zero when nothing
// matches.
func (c *Corpus) TFIDF(query []string, docText string) float64 {
	if len(query) == 0 {
		return 0
	}
	tf := TermFreq(docText)
	docLen := 0
	for _, n := range tf {
		docLen += n
	}
	if docLen == 0 {
		return 0
	}
	var score float64
	for _, q := range query {
		if f := tf[q]; f > 0 {
			score += (float64(f) / float64(docLen)) * c.IDF(q)
		}
	}
	return score
}

// BM25 parameters. k1 saturates term frequency; b controls length
// normalization. Defaults follow the standard Robertson settings.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// BM25 scores a document's text against query keywords with Okapi BM25.
func (c *Corpus) BM25(query []string, docText string) float64 {
	return c.BM25Doc(query, NewDoc(docText))
}

// BM25Doc is BM25 over a document tokenized once, for scoring one text
// against many queries.
func (c *Corpus) BM25Doc(query []string, d Doc) float64 {
	if len(query) == 0 {
		return 0
	}
	norm := c.LengthNorm(d.length)
	var score float64
	for _, q := range query {
		if f := d.Count(q); f > 0 {
			score += BM25Term(c.IDF(q), f, norm)
		}
	}
	return score
}

// LengthNorm is BM25's length normalization for a document of length
// tokens: 1 - b + b·length/avgdl, or 1 over an empty corpus.
func (c *Corpus) LengthNorm(length int) float64 {
	if c.avgDocLen == 0 {
		return 1
	}
	return 1 - bm25B + bm25B*float64(length)/c.avgDocLen
}

// BM25Term is one query term's BM25 contribution to a document it occurs
// f times in: idf·f(k1+1) / (f + k1·norm), norm being the document's
// LengthNorm. BM25Doc sums it in query order, and so must every other
// evaluator that claims BM25Doc's scores, so the two evaluate one float
// expression and cannot round apart.
func BM25Term(idf float64, f int, norm float64) float64 {
	tf := float64(f)
	return idf * (tf * (bm25K1 + 1)) / (tf + bm25K1*norm)
}

// DefaultScorer is the scoring function selections fall back to when the
// paper's optional S parameter is omitted but the condition carries
// keywords (Section 5.1). It needs no corpus: the score is the fraction of
// query terms present in the document, a simple containment measure that is
// deterministic and corpus-free.
func DefaultScorer(query []string, docText string) float64 {
	return DefaultScoreDoc(query, NewDoc(docText))
}

// DefaultScoreDoc is DefaultScorer over a document tokenized once.
func DefaultScoreDoc(query []string, d Doc) float64 {
	if len(query) == 0 {
		return 0
	}
	hit := 0
	for _, q := range query {
		if d.Count(q) > 0 {
			hit++
		}
	}
	return Coverage(hit, len(query))
}

// Coverage is DefaultScoreDoc's score for a document that holds hit of a
// query's n terms (counted with the query's repeats): hit/n.
func Coverage(hit, n int) float64 { return float64(hit) / float64(n) }
