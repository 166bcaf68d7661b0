package scoring

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// docPieces are the fragments random texts are drawn from: plain and
// capitalised words, stopwords, punctuation, digits, non-ASCII letters,
// and separators that are neither letter nor digit.
var docPieces = []string{
	"denver", "Denver", "DENVER", "baseball", "the", "and", "of", "museum",
	"café", "Café", "straße", "日本", "東京", "ölçek", "42", "b's", "co-op",
	"...", "!", "  ", "\t", " ", "—", "x", "a1b2",
}

func randomText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		p := docPieces[rng.Intn(len(docPieces))]
		for r := rng.Intn(3); r >= 0; r-- { // repeats
			b.WriteString(p)
			if rng.Intn(3) != 0 {
				b.WriteByte(' ')
			}
		}
	}
	return b.String()
}

// randomQuery draws query terms the way callers pass them: mostly tokens,
// with repeats, plus strings the tokenizer never emits ("", upper case,
// stopwords, punctuation), which must simply never match.
func randomQuery(rng *rand.Rand) []string {
	var q []string
	for n := rng.Intn(5); n > 0; n-- {
		if rng.Intn(4) == 0 {
			q = append(q, docPieces[rng.Intn(len(docPieces))])
			continue
		}
		q = append(q, Tokenize(docPieces[rng.Intn(len(docPieces))])...)
	}
	if rng.Intn(8) == 0 {
		q = append(q, "")
	}
	return q
}

// bm25Oracle and defaultScorerOracle are the text scorers as they were
// written before documents were tokenized once: over TermFreq and
// TokenSet maps of the raw text.
func bm25Oracle(c *Corpus, query []string, docText string) float64 {
	if len(query) == 0 {
		return 0
	}
	tf := TermFreq(docText)
	docLen := 0
	for _, n := range tf {
		docLen += n
	}
	norm := 1.0
	if c.avgDocLen > 0 {
		norm = 1 - bm25B + bm25B*float64(docLen)/c.avgDocLen
	}
	var score float64
	for _, q := range query {
		f := float64(tf[q])
		if f == 0 {
			continue
		}
		score += c.IDF(q) * (f * (bm25K1 + 1)) / (f + bm25K1*norm)
	}
	return score
}

func defaultScorerOracle(query []string, docText string) float64 {
	if len(query) == 0 {
		return 0
	}
	doc := TokenSet(docText)
	hit := 0
	for _, q := range query {
		if _, ok := doc[q]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(query))
}

// corpusOracle folds texts into corpus statistics through a per-text
// TermFreq map, as AddDoc did before documents.
func corpusOracle(texts []string) *Corpus {
	c := NewCorpus()
	for _, s := range texts {
		tf := TermFreq(s)
		c.docCount++
		for t, n := range tf {
			c.totalLen += n
			c.docFreq[t]++
		}
		c.avgDocLen = float64(c.totalLen) / float64(c.docCount)
	}
	return c
}

// TestDocScoresBitIdentical requires the tokenize-once scorers to equal the
// map-based text scorers bit for bit on random texts, including the empty
// string.
func TestDocScoresBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		texts := []string{""}
		for n := rng.Intn(8); n > 0; n-- {
			texts = append(texts, randomText(rng))
		}
		byText, byDoc, want := NewCorpus(), NewCorpus(), corpusOracle(texts)
		docs := make([]Doc, len(texts))
		for i, s := range texts {
			byText.AddDoc(s)
			docs[i] = NewDoc(s)
			byDoc.Add(docs[i])
		}
		for _, c := range []*Corpus{byText, byDoc} {
			if !reflect.DeepEqual(c, want) {
				t.Fatalf("corpus over %q: %+v, want %+v", texts, c, want)
			}
		}
		for i, s := range texts {
			if got, want := docs[i].Len(), len(Tokenize(s)); got != want {
				t.Fatalf("NewDoc(%q).Len() = %d, want %d", s, got, want)
			}
			for term, n := range TermFreq(s) {
				if got := docs[i].Count(term); got != n {
					t.Fatalf("NewDoc(%q).Count(%q) = %d, want %d", s, term, got, n)
				}
			}
			for c := 0; c < 10; c++ {
				q := randomQuery(rng)
				bm25 := bm25Oracle(want, q, s)
				for _, got := range []float64{want.BM25Doc(q, docs[i]), want.BM25(q, s)} {
					if math.Float64bits(got) != math.Float64bits(bm25) {
						t.Fatalf("BM25 of %q over %q = %v, oracle %v", q, s, got, bm25)
					}
				}
				contain := defaultScorerOracle(q, s)
				for _, got := range []float64{DefaultScoreDoc(q, docs[i]), DefaultScorer(q, s)} {
					if math.Float64bits(got) != math.Float64bits(contain) {
						t.Fatalf("DefaultScorer of %q over %q = %v, oracle %v", q, s, got, contain)
					}
				}
			}
		}
	}
}
