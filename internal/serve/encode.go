package serve

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"socialscope"
	"socialscope/internal/discovery"
	"socialscope/internal/graph"
)

// The read path's append encoder. A computed /search, /query or
// /recommend body is written straight from the engine's answer into
// bytes, field by field in the wire structs' order, with encoding/json's
// rules: HTML-safe string escaping, U+2028/2029 escaped, invalid UTF-8 as
// \ufffd, floats in 'f' form switching to 'e' below 1e-6 and at 1e21,
// omitempty where the struct tags say so, and an error on NaN or ±Inf.
// json.Marshal of the shaped wire structs (SearchResponseFromEngine,
// RecommendResponse) is the definition; FuzzSearchEncoder and the
// ledger-corpus tests hold the encoder to it byte for byte.

// encoder appends one JSON body; err keeps the first unsupported float.
type encoder struct {
	b   []byte
	err error
}

// encodeBufs holds scratch buffers for encoders. Bodies are copied out at
// their exact size (the cache holds thousands), so a scratch buffer is
// never handed out; buffers grown past maxPooledBuf are dropped.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

// encodeBody runs fill on a pooled encoder and returns an exact-size copy
// of what it wrote, or its error.
func encodeBody(fill func(*encoder)) ([]byte, error) {
	buf := encodeBufs.Get().(*[]byte)
	e := encoder{b: (*buf)[:0]}
	fill(&e)
	var body []byte
	if e.err == nil {
		body = append([]byte(nil), e.b...)
	}
	if cap(e.b) <= maxPooledBuf {
		*buf = e.b
		encodeBufs.Put(buf)
	}
	return body, e.err
}

// encodeSearchResponse returns the bytes of
// json.Marshal(SearchResponseFromEngine(nil, version, q, resp, stats)).
func encodeSearchResponse(version uint64, q discovery.Query, resp *socialscope.Response, stats *QueryStatsWire) ([]byte, error) {
	return encodeBody(func(e *encoder) { e.search(version, q, resp, stats) })
}

// encodeRecommendResponse returns the bytes of json.Marshal of the
// RecommendResponse for recs, with names read from g.
func encodeRecommendResponse(version uint64, user graph.NodeID, variant string,
	recs []discovery.Recommendation, g *graph.Graph) ([]byte, error) {
	return encodeBody(func(e *encoder) { e.recommend(version, user, variant, recs, g) })
}

func (e *encoder) search(version uint64, q discovery.Query, resp *socialscope.Response, stats *QueryStatsWire) {
	snap := resp.MSG.Snapshot
	e.b = append(e.b, `{"version":`...)
	e.b = strconv.AppendUint(e.b, version, 10)
	e.b = append(e.b, `,"query":`...)
	e.str(q.String())
	if basis := resp.MSG.Basis.Kind.String(); basis != "" {
		e.b = append(e.b, `,"basis":`...)
		e.str(basis)
	}
	e.b = append(e.b, `,"results":[`...)
	for i, r := range resp.MSG.Results {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"item":`...)
		e.b = strconv.AppendInt(e.b, int64(r.Item), 10)
		e.name(snap, r.Item)
		e.b = append(e.b, `,"score":`...)
		e.float(r.Score)
		e.b = append(e.b, `,"semantic":`...)
		e.float(r.Semantic)
		e.b = append(e.b, `,"social":`...)
		e.float(r.Social)
		if len(r.Endorsers) > 0 {
			e.b = append(e.b, `,"endorsers":`...)
			e.ids(r.Endorsers)
		}
		if s := resp.Summaries[i]; s != "" {
			e.b = append(e.b, `,"explanation":`...)
			e.str(s)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, `],"grouping":{`...)
	chosen := resp.Presentation.Chosen
	sep := ""
	if chosen.Criterion != "" {
		e.b = append(e.b, `"criterion":`...)
		e.str(chosen.Criterion)
		sep = ","
	}
	if len(chosen.Groups) > 0 {
		e.b = append(e.b, sep...)
		e.b = append(e.b, `"groups":[`...)
		for i, grp := range chosen.Groups {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"label":`...)
			e.str(grp.Label)
			e.b = append(e.b, `,"items":`...)
			e.ids(grp.Items)
			e.b = append(e.b, `,"quality":`...)
			e.float(grp.Quality)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `},"related":{`...)
	rel := resp.Related
	sep = ""
	if len(rel.Topics) > 0 {
		e.b = append(e.b, `"topics":[`...)
		for i, rt := range rel.Topics {
			e.entry(i, snap, rt.Topic, rt.Count)
		}
		e.b = append(e.b, ']')
		sep = ","
	}
	if len(rel.Users) > 0 {
		e.b = append(e.b, sep...)
		e.b = append(e.b, `"users":[`...)
		for i, ru := range rel.Users {
			e.entry(i, snap, ru.User, ru.Count)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
	if stats != nil {
		e.b = append(e.b, `,"stats":{"strategy":`...)
		e.str(stats.Strategy)
		e.b = append(e.b, `,"postings_scanned":`...)
		e.b = strconv.AppendInt(e.b, int64(stats.PostingsScanned), 10)
		e.b = append(e.b, `,"exact_scores":`...)
		e.b = strconv.AppendInt(e.b, int64(stats.ExactScores), 10)
		e.b = append(e.b, `,"candidates":`...)
		e.b = strconv.AppendInt(e.b, int64(stats.Candidates), 10)
		e.b = append(e.b, `,"early_terminated":`...)
		e.b = strconv.AppendBool(e.b, stats.EarlyTerminated)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, '}')
}

// entry appends the i-th RelatedEntryWire of a list.
func (e *encoder) entry(i int, snap *graph.Graph, id graph.NodeID, count int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, `{"id":`...)
	e.b = strconv.AppendInt(e.b, int64(id), 10)
	e.name(snap, id)
	e.b = append(e.b, `,"count":`...)
	e.b = strconv.AppendInt(e.b, int64(count), 10)
	e.b = append(e.b, '}')
}

func (e *encoder) recommend(version uint64, user graph.NodeID, variant string,
	recs []discovery.Recommendation, g *graph.Graph) {
	e.b = append(e.b, `{"version":`...)
	e.b = strconv.AppendUint(e.b, version, 10)
	e.b = append(e.b, `,"user":`...)
	e.b = strconv.AppendInt(e.b, int64(user), 10)
	e.b = append(e.b, `,"variant":`...)
	e.str(variant)
	e.b = append(e.b, `,"recommendations":[`...)
	for i, rec := range recs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"item":`...)
		e.b = strconv.AppendInt(e.b, int64(rec.Item), 10)
		e.name(g, rec.Item)
		e.b = append(e.b, `,"score":`...)
		e.float(rec.Score)
		if len(rec.Basis) > 0 {
			e.b = append(e.b, `,"basis":`...)
			e.ids(rec.Basis)
		}
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, "]}"...)
}

// name appends the omitempty "name" field of id as g names it.
func (e *encoder) name(g *graph.Graph, id graph.NodeID) {
	n := g.Node(id)
	if n == nil {
		return
	}
	if s := n.Attrs.Get("name"); s != "" {
		e.b = append(e.b, `,"name":`...)
		e.str(s)
	}
}

// ids appends an id list, null when nil as encoding/json writes a nil
// slice.
func (e *encoder) ids(ids []graph.NodeID) {
	if ids == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, id := range ids {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(id), 10)
	}
	e.b = append(e.b, ']')
}

// float appends f as encoding/json does: the shortest 'f' form, 'e' form
// below 1e-6 and from 1e21 on with the exponent's leading zero dropped
// (e-07 becomes e-7). NaN and ±Inf are unsupported.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// str appends s quoted as encoding/json does with HTML escaping on:
// '"', '\\', control bytes and <, >, & escaped, U+2028 and U+2029
// escaped, and each byte of invalid UTF-8 replaced by \ufffd.
func (e *encoder) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
