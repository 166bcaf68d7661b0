package scoring

import (
	"iter"
	"slices"
	"strings"
	"unicode"
)

// stopwords are dropped during tokenization. The list is deliberately small:
// query terms such as "things to do" must survive classification upstream,
// so only bare glue words appear here.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"by": {}, "for": {}, "from": {}, "in": {}, "is": {}, "it": {}, "of": {},
	"on": {}, "or": {}, "the": {}, "to": {}, "with": {},
}

// Tokenize lowercases the input and splits it into alphanumeric terms,
// dropping stopwords. It is the single tokenizer shared by scoring, the
// query model, and the query classifier, so that a term matches itself
// across layers.
func Tokenize(s string) []string {
	fields := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if _, stop := stopwords[f]; stop {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TokenSet returns the distinct tokens of s.
func TokenSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range Tokenize(s) {
		set[t] = struct{}{}
	}
	return set
}

// TermFreq returns token → occurrence count for s.
func TermFreq(s string) map[string]int {
	tf := make(map[string]int)
	for _, t := range Tokenize(s) {
		tf[t]++
	}
	return tf
}

// IsStopword reports whether the (lowercase) term is in the stopword list.
func IsStopword(term string) bool {
	_, ok := stopwords[term]
	return ok
}

// Doc is a text tokenized once, for scoring it against many queries: its
// distinct terms in ascending order, each term's occurrence count, and its
// length in tokens.
type Doc struct {
	terms  []string
	counts []int32
	length int
}

// NewDoc tokenizes text into a Doc.
func NewDoc(text string) Doc {
	toks := Tokenize(text)
	slices.Sort(toks)
	counts := make([]int32, len(toks))
	n := 0
	for i, t := range toks {
		if i == 0 || t != toks[i-1] {
			toks[n] = t
			n++
		}
		counts[n-1]++
	}
	return Doc{terms: toks[:n:n], counts: counts[:n:n], length: len(toks)}
}

// Count returns how often term occurs in the document.
func (d Doc) Count(term string) int {
	if i, ok := slices.BinarySearch(d.terms, term); ok {
		return int(d.counts[i])
	}
	return 0
}

// Len returns the document's length in tokens.
func (d Doc) Len() int { return d.length }

// Terms yields the document's distinct terms in ascending order, each with
// its occurrence count.
func (d Doc) Terms() iter.Seq2[string, int] {
	return func(yield func(string, int) bool) {
		for i, t := range d.terms {
			if !yield(t, int(d.counts[i])) {
				return
			}
		}
	}
}
