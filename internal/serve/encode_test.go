package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
	"socialscope/internal/presentation"
	"socialscope/internal/workload"
)

// recommendResponseOracle shapes a recommendation list into the wire
// struct the way the /recommend handler did before the append encoder;
// json.Marshal of it is the definition of a /recommend body.
func recommendResponseOracle(version uint64, user graph.NodeID, variant string,
	recs []discovery.Recommendation, g *graph.Graph) RecommendResponse {
	out := RecommendResponse{
		Version:         version,
		User:            user,
		Variant:         variant,
		Recommendations: make([]RecommendationWire, 0, len(recs)),
	}
	for _, rec := range recs {
		name := ""
		if n := g.Node(rec.Item); n != nil {
			name = n.Attrs.Get("name")
		}
		out.Recommendations = append(out.Recommendations, RecommendationWire{
			Item: rec.Item, Name: name, Score: rec.Score, Basis: rec.Basis,
		})
	}
	return out
}

// sameAsMarshal fails unless got/gotErr is what json.Marshal(v) returns:
// identical bytes, or an error with the same message.
func sameAsMarshal(t *testing.T, what string, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Fatalf("%s: encoder error %v, json.Marshal error %v", what, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: encoder error %q, json.Marshal error %q", what, gotErr, wantErr)
	case !bytes.Equal(got, want):
		t.Fatalf("%s: encoder wrote\n%s\njson.Marshal wrote\n%s", what, got, want)
	}
}

// FuzzSearchEncoder holds the append encoder to json.Marshal of the wire
// structs on random responses: names, labels and explanations carrying
// quotes, control bytes, <>&, U+2028/2029 and invalid UTF-8; scores at
// the 'f'/'e' cut-overs, -0, subnormals, NaN and ±Inf; nil against empty
// endorser, basis and group item lists; empty results, groups and related
// lists; a nil Stats. The shape word picks the structure.
func FuzzSearchEncoder(f *testing.F) {
	for _, c := range []struct {
		name, expl string
		x, y       float64
		shape      uint64
	}{
		{"museum", "60% of your friends endorsed this item", 0.5, 0.25, 0},
		{`a "quoted" \ name`, "tab\there\nline\r\b\f", 1e-6, math.Nextafter(1e-6, 0), 1},
		{"<script>&amp;</script>", "\x00\x01\x1f\x7f", 1e21, math.Nextafter(1e21, 0), 0x2a},
		{"line\u2028para\u2029", "\xff\xfe\xc3(invalid", math.Copysign(0, -1), 5e-324, 0x55},
		{"日本語 café", "", math.NaN(), 1, 0x7f},
		{"", "ok", 1, math.Inf(1), 0x3ff},
		{"x", "y", math.Inf(-1), -1e-7, 0x100},
		{"big", "small", 123456789e12, 1.5e-300, 0xffff_ffff_ffff_ff00},
	} {
		f.Add(c.name, c.expl, c.x, c.y, c.shape)
	}
	f.Fuzz(func(t *testing.T, name, expl string, x, y float64, shape uint64) {
		bit := func(i uint) bool { return shape>>i&1 == 1 }
		b := graph.NewBuilder()
		named := []string{name, expl, name + expl, ""}
		items := make([]graph.NodeID, len(named))
		for i, s := range named {
			if s == "" {
				items[i] = b.Node([]string{graph.TypeItem})
			} else {
				items[i] = b.Node([]string{graph.TypeItem}, "name", s)
			}
		}
		user := b.Node([]string{graph.TypeUser}, "name", expl)
		topic := b.Node([]string{graph.TypeTopic}, "name", name)
		// An id from the shape word, anywhere in int64, when it is free.
		far := graph.NodeID(int64(shape))
		if b.Peek().Node(far) == nil {
			b.NodeWithID(far, []string{graph.TypeUser}, "name", name)
		}
		g := b.Graph()

		endorsers := []graph.NodeID{user, far}
		if bit(1) {
			endorsers = []graph.NodeID{}
		} else if bit(2) {
			endorsers = nil
		}
		var results []discovery.Result
		var summaries []string
		if !bit(0) {
			for i, it := range items {
				r := discovery.Result{Item: it, Score: x, Semantic: y, Social: -x}
				if i%2 == 0 {
					r.Endorsers = endorsers
				}
				results = append(results, r)
				summaries = append(summaries, named[(i+1)%len(named)])
			}
		}
		groupItems := items[:2]
		if bit(3) {
			groupItems = []graph.NodeID{}
		} else if bit(4) {
			groupItems = nil
		}
		var chosen presentation.Grouping
		if !bit(5) {
			chosen.Criterion = name
		}
		if !bit(6) {
			chosen.Groups = []presentation.Group{
				{Label: name, Items: groupItems, Quality: y},
				{Label: expl, Items: items, Quality: x},
			}
		}
		var rel discovery.Related
		if !bit(7) {
			rel.Topics = []discovery.RelatedTopic{{Topic: topic, Count: 3}, {Topic: items[0], Count: -1}}
		}
		if !bit(8) {
			rel.Users = []discovery.RelatedUser{{User: far, Count: int(shape >> 40)}, {User: user, Count: 2}}
		}
		var stats *QueryStatsWire
		if !bit(9) {
			stats = &QueryStatsWire{
				Strategy: expl, PostingsScanned: int(shape >> 20), ExactScores: -3,
				Candidates: 7, EarlyTerminated: bit(10),
			}
		}
		resp := &socialscope.Response{
			MSG: &discovery.MSG{
				User:     user,
				Basis:    discovery.SocialBasis{Kind: discovery.BasisKind(shape >> 11 & 3)},
				Results:  results,
				Snapshot: g,
			},
			Presentation: presentation.Presentation{Chosen: chosen},
			Summaries:    summaries,
			Related:      rel,
		}
		q := discovery.Query{Keywords: []string{name, expl}}
		version := shape >> 13
		got, err := encodeSearchResponse(version, q, resp, stats)
		sameAsMarshal(t, "search", got, err, SearchResponseFromEngine(nil, version, q, resp, stats))

		var recs []discovery.Recommendation
		if !bit(0) {
			for i, it := range items {
				rec := discovery.Recommendation{Item: it, Score: []float64{x, y}[i%2], Basis: endorsers}
				if i%2 == 1 {
					rec.Basis = nil
				}
				recs = append(recs, rec)
			}
		}
		got, err = encodeRecommendResponse(version, far, expl, recs, g)
		sameAsMarshal(t, "recommend", got, err, recommendResponseOracle(version, far, expl, recs, g))
	})
}

// ledgerQueries draws, per user, the ledger's read shapes: a tagged query
// of 1, 2 and 3 category tags, a structural fusion query and the empty
// query.
func ledgerQueries(rng *rand.Rand) []string {
	tag := workload.Categories[rng.Intn(len(workload.Categories))]
	return []string{
		tagQuery(rng, 1), tagQuery(rng, 2), tagQuery(rng, 3),
		fmt.Sprintf("%s type:destination rating>=%.1f", tag, 0.3+0.1*float64(rng.Intn(6))), "",
	}
}

func serveGet(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// TestLedgerBodiesMatchOracle: on the ledger's corpus, for every user ×
// the ledger's tagged and fusion read shapes, the computed /search body
// is json.Marshal of SearchResponseFromEngine, byte for byte, and the
// cached body (first miss, then hit) is the same bytes; every user's
// stepwise /recommend body, and every tenth user's pattern one, is
// json.Marshal of the RecommendResponse.
func TestLedgerBodiesMatchOracle(t *testing.T) {
	srv, corpus := ledgerSite(t)
	h, eng := srv.Handler(), srv.Engine()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(35))
	related := 0
	for ui, user := range corpus.Users {
		uid := strconv.FormatInt(int64(user), 10)
		for _, text := range ledgerQueries(rng) {
			v := url.Values{"user": {uid}, "q": {text}, "k": {"10"}}
			path := "/search?" + v.Encode()
			bypass := serveGet(h, path+"&nocache=1")
			if bypass.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, bypass.Code, bypass.Body)
			}
			q, err := discovery.ParseQuery(text)
			if err != nil {
				t.Fatal(err)
			}
			q.K = 10
			resp, err := eng.QueryCtx(ctx, user, q)
			if err != nil {
				t.Fatal(err)
			}
			sameAsMarshal(t, path, bypass.Body.Bytes(), nil,
				SearchResponseFromEngine(eng, resp.Version, q, resp, statsWire(resp.Stats)))
			if len(resp.Related.Users) > 0 {
				related++
			}
			for _, outcome := range []Outcome{OutcomeMiss, OutcomeHit} {
				cached := serveGet(h, path)
				if got := Outcome(cached.Header().Get(HeaderCache)); got != outcome {
					t.Fatalf("%s: cache outcome %q, want %q", path, got, outcome)
				}
				if !bytes.Equal(cached.Body.Bytes(), bypass.Body.Bytes()) {
					t.Fatalf("%s: %s body\n%s\nnocache body\n%s", path, outcome, cached.Body, bypass.Body)
				}
			}
		}
		variants := []discovery.CFVariant{discovery.CFStepwise}
		if ui%10 == 0 {
			variants = append(variants, discovery.CFPattern)
		}
		for _, variant := range variants {
			path := "/recommend?nocache=1&user=" + uid + "&variant=" + variant.String()
			w := serveGet(h, path)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, w.Code, w.Body)
			}
			recs, err := eng.RecommendCtx(ctx, user, variant)
			if err != nil {
				t.Fatal(err)
			}
			sameAsMarshal(t, path, w.Body.Bytes(), nil,
				recommendResponseOracle(eng.Version(), user, variant.String(), recs, eng.Graph()))
		}
	}
	if related < len(corpus.Users) {
		t.Errorf("only %d bodies carried related users", related)
	}
}

// TestCachedBodyNotAliased: a stored body is a copy of the encoder's
// scratch, so a later miss encoding a different body into that scratch
// leaves the stored bytes alone. The reads run back to back on one
// goroutine, so the second miss gets the first one's pooled buffer.
func TestCachedBodyNotAliased(t *testing.T) {
	site := newTestSite(t, Config{})
	h := site.srv.Handler()
	read := func(path string, want Outcome) []byte {
		t.Helper()
		w := serveGet(h, path)
		if got := Outcome(w.Header().Get(HeaderCache)); w.Code != http.StatusOK || got != want {
			t.Fatalf("%s: status %d, cache %q, want 200 and %q", path, w.Code, got, want)
		}
		return w.Body.Bytes()
	}
	a := site.searchPath(site.corpus.Users[0], "museum family", false)
	b := site.searchPath(site.corpus.Users[1], "beach", false)
	first := read(a, OutcomeMiss)
	if other := read(b, OutcomeMiss); bytes.Equal(other, first) {
		t.Fatalf("%s and %s answer the same body", a, b)
	}
	if again := read(a, OutcomeHit); !bytes.Equal(again, first) {
		t.Fatalf("stored body changed after a later miss:\n was %s\n now %s", first, again)
	}
}
