package discovery

import (
	"testing"

	"socialscope/internal/scoring"
)

// FuzzParseQuery feeds untrusted search-box text to the query parser and
// on to the fusion path. Neither may panic; every accepted query must ask
// for a positive K at an α inside [0,1], carry only non-empty predicates
// and non-stopword keywords, and evaluate to exactly discoverOracle's MSG.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"", "Denver attractions", "family trip type:destination",
		"type:destination rating>=0.5 baseball", "rating>=", ":x", "a:b:c",
		">=<=!=", "id!=3 id:1 id>x", "rating>1e309 rating<NaN", "日本 type:ß İstanbul",
		"the of and", "k!=v x<y z>", "\x00\xff type:\t",
		"rating>=NaN", "rating<+Inf rating>-inf", "rating>0x1p-2 museum", "rating<=.5e1",
		"type>destination", "type!=destination", "id>3 id<=9", "city!=Denver rating>=0.5x",
	} {
		f.Add(s)
	}
	fx := buildJohnFixture(f)
	d := NewDiscoverer(fx.g, "destination")
	corpus := scoring.NodeCorpus(fx.g, d.itemType)
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		if q.K <= 0 || !(q.Alpha >= 0 && q.Alpha <= 1) {
			t.Fatalf("ParseQuery(%q) = K %d, α %v", s, q.K, q.Alpha)
		}
		for _, sc := range q.Structural {
			if sc.Attr == "" || len(sc.Values) != 1 || sc.Values[0] == "" {
				t.Fatalf("ParseQuery(%q): predicate %+v", s, sc)
			}
		}
		for _, kw := range q.Keywords {
			if kw == "" || scoring.IsStopword(kw) {
				t.Fatalf("ParseQuery(%q): keyword %q", s, kw)
			}
		}
		msg := assertDiscoverMatchesOracle(t, d, corpus, fx.john, q)
		if msg == nil {
			t.Fatalf("Discover(%q) failed", s)
		}
		if len(msg.Results) > q.K {
			t.Fatalf("Discover(%q): %d results for K %d", s, len(msg.Results), q.K)
		}
	})
}
