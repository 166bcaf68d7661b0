package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"socialscope/internal/graph"
)

// FuzzWireDecoders feeds untrusted bytes to the serving API's request
// decoders: as a POST /query body and as a GET /search query string
// through parseQueryRequest, and as a POST /apply body through
// MutationWire.Mutation and ApplyAll on a clone of a small graph.
// Nothing may panic, an accepted query request must lie within the
// serving limits, and an accepted batch must leave a valid graph.
func FuzzWireDecoders(f *testing.F) {
	for _, seed := range []string{
		`{"user":1,"q":"museum","k":5,"alpha":0.5}`,
		`{"user":1,"q":"city:denver rating>=0.5","k":1001}`,
		`{"user":-1,"alpha":1e999}`,
		`user=1&q=museum&k=5&alpha=0.5`,
		`user=1&q=museum&k=-3&alpha=NaN`,
		`user=9223372036854775808&k=99999999999999999999`,
		`{"mutations":[{"op":"add-link","link":{"id":100,"src":1,"tgt":3,"types":["act","tag"],"attrs":{"tags":["museum"]}}}]}`,
		`{"mutations":[{"op":"put-link","link":{"id":10,"src":1,"tgt":3,"types":["act"]},"prev":{"id":10,"src":2,"tgt":3}}]}`,
		`{"mutations":[{"op":"remove-node","node":{"id":1}},{"op":"add-node","node":{"id":1,"types":["user"]}}]}`,
		`{"mutations":[{"op":"add-link","link":{"id":101,"src":1,"tgt":99}},{"op":"remove-link","link":{"id":11}}]}`,
		`{"mutations":[{"op":"put-node","node":{"id":3,"attrs":{"name":[]}}},{"op":"bogus"}]}`,
	} {
		f.Add([]byte(seed))
	}
	b := graph.NewBuilder()
	b.NodeWithID(1, []string{graph.TypeUser})
	b.NodeWithID(2, []string{graph.TypeUser})
	b.NodeWithID(3, []string{graph.TypeItem}, "name", "museum")
	b.Link(1, 2, []string{graph.TypeConnect, graph.SubtypeFriend})
	b.Link(2, 3, []string{graph.TypeAct, graph.SubtypeTag}, "tags", "museum")
	base := b.Graph()

	f.Fuzz(func(t *testing.T, data []byte) {
		checkQueryRequest(t, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(data)))
		get := httptest.NewRequest(http.MethodGet, "/search", nil)
		get.URL.RawQuery = string(data)
		checkQueryRequest(t, get)

		var req ApplyRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil ||
			len(req.Mutations) > maxApplyMutations {
			return
		}
		muts := make([]graph.Mutation, 0, len(req.Mutations))
		for _, mw := range req.Mutations {
			m, err := mw.Mutation()
			if err != nil {
				return
			}
			muts = append(muts, m)
		}
		g := base.Clone()
		g.Acts(1) // build the neighbourhood view, so ApplyAll patches it as a live engine's would
		if err := g.ApplyAll(muts); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted batch left an invalid graph: %v", err)
		}
	})
}

// checkQueryRequest parses r and fails when an accepted request breaks a
// serving limit.
func checkQueryRequest(t *testing.T, r *http.Request) {
	t.Helper()
	req, err := parseQueryRequest(r)
	if err != nil {
		return
	}
	if req.K > maxResultK {
		t.Fatalf("accepted k %d over %d", req.K, maxResultK)
	}
	if len(req.Query) > maxQueryBytes {
		t.Fatalf("accepted a %d-byte query", len(req.Query))
	}
	if req.Alpha != nil && !(*req.Alpha >= 0 && *req.Alpha <= 1) {
		t.Fatalf("accepted alpha %g", *req.Alpha)
	}
}
