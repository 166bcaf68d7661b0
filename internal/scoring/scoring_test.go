package scoring

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"socialscope/internal/graph"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Denver attractions", []string{"denver", "attractions"}},
		{"things to do", []string{"things", "do"}},
		{"Barcelona family trip with babies", []string{"barcelona", "family", "trip", "babies"}},
		{"  B's  Ballpark-Museum ", []string{"b", "s", "ballpark", "museum"}},
		{"", nil},
		{"the of and", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenSetAndTermFreq(t *testing.T) {
	ts := TokenSet("baseball baseball rockies")
	if len(ts) != 2 {
		t.Errorf("TokenSet = %v", ts)
	}
	tf := TermFreq("baseball baseball rockies")
	if tf["baseball"] != 2 || tf["rockies"] != 1 {
		t.Errorf("TermFreq = %v", tf)
	}
	if !IsStopword("the") || IsStopword("denver") {
		t.Error("IsStopword wrong")
	}
}

func buildCorpus() *Corpus {
	c := NewCorpus()
	c.AddDoc("denver attractions baseball coors field")
	c.AddDoc("san francisco fisherman wharf")
	c.AddDoc("barcelona parc ciutadella family")
	c.AddDoc("denver ballpark museum baseball")
	return c
}

func TestCorpusStats(t *testing.T) {
	c := buildCorpus()
	if c.DocCount() != 4 {
		t.Errorf("DocCount = %d", c.DocCount())
	}
	if c.DocFreq("denver") != 2 || c.DocFreq("baseball") != 2 || c.DocFreq("missing") != 0 {
		t.Error("DocFreq wrong")
	}
	// Rarer terms get higher IDF.
	if c.IDF("barcelona") <= c.IDF("denver") {
		t.Error("IDF not decreasing in document frequency")
	}
	if c.IDF("anything") <= 0 {
		t.Error("IDF must stay positive")
	}
}

func TestTFIDF(t *testing.T) {
	c := buildCorpus()
	q := Tokenize("denver baseball")
	d1 := c.TFIDF(q, "denver ballpark museum baseball")
	d2 := c.TFIDF(q, "san francisco fisherman wharf")
	if d1 <= d2 {
		t.Errorf("matching doc %f should outscore non-matching %f", d1, d2)
	}
	if d2 != 0 {
		t.Errorf("non-matching doc score = %f", d2)
	}
	if c.TFIDF(nil, "anything") != 0 {
		t.Error("empty query should score 0")
	}
	if c.TFIDF(q, "") != 0 {
		t.Error("empty doc should score 0")
	}
}

func TestBM25(t *testing.T) {
	c := buildCorpus()
	q := Tokenize("denver baseball")
	full := c.BM25(q, "denver baseball stadium")
	half := c.BM25(q, "denver hotels downtown")
	none := c.BM25(q, "paris louvre")
	if !(full > half && half > none && none == 0) {
		t.Errorf("BM25 ordering broken: %f %f %f", full, half, none)
	}
	if c.BM25(nil, "x") != 0 {
		t.Error("empty query should score 0")
	}
	// Term-frequency saturation: doubling tf shouldn't double the score.
	one := c.BM25([]string{"denver"}, "denver")
	two := c.BM25([]string{"denver"}, "denver denver")
	if two >= 2*one {
		t.Errorf("BM25 not saturating: tf1=%f tf2=%f", one, two)
	}
}

func TestDefaultScorer(t *testing.T) {
	q := Tokenize("denver attractions")
	if got := DefaultScorer(q, "denver attractions and museums"); got != 1 {
		t.Errorf("full match = %f", got)
	}
	if got := DefaultScorer(q, "denver hotels"); got != 0.5 {
		t.Errorf("half match = %f", got)
	}
	if got := DefaultScorer(q, "paris"); got != 0 {
		t.Errorf("no match = %f", got)
	}
	if DefaultScorer(nil, "x") != 0 {
		t.Error("empty query should be 0")
	}
}

func TestNodeCorpus(t *testing.T) {
	b := graph.NewBuilder()
	b.Node([]string{graph.TypeItem, "city"}, "name", "Denver")
	b.Node([]string{graph.TypeUser}, "name", "John")
	b.Node([]string{graph.TypeItem, "city"}, "name", "Barcelona")
	c := NodeCorpus(b.Graph(), graph.TypeItem)
	if c.DocCount() != 2 {
		t.Errorf("NodeCorpus DocCount = %d", c.DocCount())
	}
	all := NodeCorpus(b.Graph(), "")
	if all.DocCount() != 3 {
		t.Errorf("NodeCorpus('') DocCount = %d", all.DocCount())
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(2, 3, 4, 5)
	if IntersectionSize(a, b) != 2 {
		t.Error("IntersectionSize wrong")
	}
	if UnionSize(a, b) != 5 {
		t.Error("UnionSize wrong")
	}
	if got := Jaccard(a, b); got != 0.4 {
		t.Errorf("Jaccard = %f", got)
	}
	if empty := NewSet[int](); Jaccard(empty, empty) != 0 {
		t.Error("empty-set Jaccard should be 0")
	}
	a.Add(9)
	if !a.Has(9) || a.Len() != 4 {
		t.Error("Add/Has/Len wrong")
	}
	if got := SortedInts(NewSet(3, 1, 2)); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("SortedInts = %v", got)
	}
	if len(a.Members()) != 4 {
		t.Error("Members wrong")
	}
}

func TestMonotoneFunctions(t *testing.T) {
	if CountF(5) != 5 {
		t.Error("CountF wrong")
	}
	if LogCountF(0) != 0 || LogCountF(1) <= 0 {
		t.Error("LogCountF wrong at boundary")
	}
	if SumG([]float64{1, 2, 3}) != 6 {
		t.Error("SumG wrong")
	}
	if MaxG([]float64{1, 5, 3}) != 5 || MaxG(nil) != 0 {
		t.Error("MaxG wrong")
	}
	if MinPositiveG([]float64{2, 1, 3}) != 1 || MinPositiveG(nil) != 0 {
		t.Error("MinPositiveG wrong")
	}
}

// Property: Jaccard is symmetric, bounded in [0,1], and 1 exactly for equal
// nonempty sets.
func TestQuickJaccardProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewSet[uint8](), NewSet[uint8]()
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		if j1 != j2 || j1 < 0 || j1 > 1 {
			return false
		}
		if len(a) > 0 && Jaccard(a, a) != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity of f=count and g=sum — growing the input never
// lowers the score. This is the admissibility precondition for the index
// layer's upper bounds.
func TestQuickMonotonicity(t *testing.T) {
	f := func(n uint8, extra uint8, scores []float64) bool {
		if CountF(int(n)) > CountF(int(n)+int(extra)) {
			return false
		}
		if LogCountF(int(n)) > LogCountF(int(n)+int(extra)) {
			return false
		}
		for i := range scores {
			scores[i] = math.Abs(scores[i])
			if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
				scores[i] = 1
			}
		}
		base := SumG(scores)
		grown := SumG(append(append([]float64(nil), scores...), 1.0))
		return grown >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: BM25 and TFIDF are non-negative and zero on disjoint vocabulary.
func TestQuickScoringNonNegative(t *testing.T) {
	c := buildCorpus()
	f := func(q, d string) bool {
		qq := Tokenize(q)
		if c.BM25(qq, d) < 0 || c.TFIDF(qq, d) < 0 {
			return false
		}
		s := DefaultScorer(qq, d)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
