package main

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"socialscope/internal/graph"
	"socialscope/internal/serve"
)

// opHash fingerprints the first n ops of every client of a workload —
// what "the same seed gives the same inputs" means, made checkable.
func opHash(wl *workloadDef, seed int64, clients, n int) (uint64, error) {
	corpus, err := newCorpus()
	if err != nil {
		return 0, err
	}
	gens, err := newGenerators(wl, corpus, seed, clients)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, g := range gens {
		for i := 0; i < n; i++ {
			o := g.next()
			h.Write([]byte{byte(o.kind)})
			h.Write([]byte(o.path))
			h.Write(o.body)
		}
	}
	return h.Sum64(), nil
}

func TestSameSeedSameOps(t *testing.T) {
	for _, wl := range workloads {
		a, err := opHash(wl, 7, loadClients, 200)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := opHash(wl, 7, loadClients, 200)
		c, _ := opHash(wl, 8, loadClients, 200)
		if a != b {
			t.Errorf("%s: seed 7 gave op hashes %x and %x", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op hash %x", wl.name, a)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if v, beyond := percentile(ramp(1000), 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if _, beyond := percentile(ramp(999), 0.99); beyond != 9 {
		t.Errorf("999 samples leave %d beyond the p99, want 9", beyond)
	}
	var res runResult
	tail(ramp(999), "read", runConfig{}, &res)
	if len(res.Notes) != 1 {
		t.Errorf("a p99 with 9 samples beyond it must be flagged, got notes %v", res.Notes)
	}
	res = runResult{}
	tail(ramp(1000), "read", runConfig{}, &res)
	tail(ramp(50), "read", runConfig{short: true}, &res) // a -short run waives the floor
	if len(res.Notes) != 0 {
		t.Errorf("unexpected notes %v", res.Notes)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "client", Start: 0, End: 100, Parent: -1},
		{Name: "route.handler", Start: 10, End: 90, Parent: 0},
		{Name: "route.backend_rt", Start: 20, End: 50, Parent: 1}, // primary try
		{Name: "route.backend_rt", Start: 40, End: 70, Parent: 1}, // hedge, overlapping 40–50
		{Name: "serve.handler", Start: 25, End: 45, Parent: 2},
		{Name: "serve.handler", Start: 60, End: 95, Parent: 3}, // outlives its parent: clipped
	}
	want := []int64{20, 30, 10, 20, 20, 35}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
}

func TestLayerFiguresSubtractPerOp(t *testing.T) {
	spans := []span{
		{Op: 0, Name: "client", Start: 0, End: 1000e3, Parent: -1, Note: "read"},
		{Op: 0, Name: "serve.handler", Start: 100e3, End: 900e3, Parent: 0, Note: "miss"},
		{Op: 1, Name: "client", Start: 0, End: 60e3, Parent: -1, Note: "read"},
		{Op: 1, Name: "serve.handler", Start: 10e3, End: 40e3, Parent: 2, Note: "hit"},
		{Op: 2, Name: "client", Start: 0, End: 9000e3, Parent: -1, Note: "write"},
		{Op: 2, Name: "serve.handler", Start: 0, End: 8000e3, Parent: 4},
	}
	st := &stairs{belowServeUS: map[int]float64{0: 700}, applyUS: map[int]float64{2: 500}}
	got := layerFigures(spans, st)
	for name, want := range map[string]float64{
		"serve.handler_self_us":  100,  // 800 − 700, the miss only
		"serve.hit_us":           30,   // the hit's whole handler span
		"serve.coalesce_wait_us": 7500, // 8000 − 500
		"bench.http_self_us":     115,  // median of 200 and 30
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestWrongRankingFailsTheCheck(t *testing.T) {
	body, err := json.Marshal(serve.SearchResponse{Results: []serve.ResultWire{{Item: 11}, {Item: 12}, {Item: 13}}})
	if err != nil {
		t.Fatal(err)
	}
	served, err := servedRanking(opSearch, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRanking(served, []graph.NodeID{11, 12, 13}); err != nil {
		t.Errorf("identical rankings rejected: %v", err)
	}
	if err := sameRanking(served, []graph.NodeID{11, 13, 12}); err == nil {
		t.Error("two swapped ranks went unnoticed")
	}
	if err := sameRanking(served, []graph.NodeID{11, 12}); err == nil {
		t.Error("a missing result went unnoticed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "read_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	m := func(v, spread float64) measurement { return measurement{Value: v, Spread: spread} }
	for _, c := range []struct {
		spec metricSpec
		a, b measurement
		want string
	}{
		{lower, m(100, 0.02), m(105, 0.02), "same"},
		{lower, m(100, 0.02), m(120, 0.02), "worse"},
		{lower, m(100, 0.02), m(80, 0.02), "better"},
		{lower, m(100, 0.02), m(105, 0.15), "unresolved"}, // spread wider than the bound: never "same"
		{higher, m(100, 0.02), m(80, 0.02), "worse"},
		{higher, m(100, 0.02), m(120, 0.02), "better"},
	} {
		if got, _ := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: verdict %q, want %q", c.spec.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestMetricSetHoldsTheCatalogue(t *testing.T) {
	ms := newMetricSet([]metricSpec{{Name: "a", Unit: "us"}, {Name: "b", Unit: "ms"}})
	ms.set("a", 1)
	ms.set("c", 2)
	_, err := ms.finish()
	if err == nil || !strings.Contains(err.Error(), `"b"`) || !strings.Contains(err.Error(), `"c"`) {
		t.Errorf("want an error naming the unmeasured b and the unlisted c, got %v", err)
	}
}

// TestShortRunEmitsTheCatalogue drives the benchmark's one command the
// way the regression driver does, once per workload and trace mode, and
// holds the last line of each to BENCHMARK.json: exactly its metrics,
// its units, no failed op, every correctness check passed.
func TestShortRunEmitsTheCatalogue(t *testing.T) {
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, ws := range spec.Workloads {
		if findWorkload(ws.Name) == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", ws.Name)
		}
		for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", ws.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "-short"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", ws.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace %s: last line is not the result object: %v", ws.Name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d", ws.Name, trace, last.Correct, last.Attempted, last.Failed)
			}
			var got, wantNames []string
			for name := range last.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				wantNames = append(wantNames, m.Name)
				if e, ok := last.Metrics[m.Name]; ok && (e.Unit != m.Unit || e.Value == nil) {
					t.Errorf("%s trace %s: %s reported as %+v, catalogue unit %q", ws.Name, trace, m.Name, e, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if strings.Join(got, " ") != strings.Join(wantNames, " ") {
				t.Errorf("%s trace %s: emitted metrics\n %v\nwant exactly BENCHMARK.json's\n %v", ws.Name, trace, got, wantNames)
			}
			if trace == "0" {
				for name, e := range last.Metrics {
					if *e.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", ws.Name, name)
					}
				}
			}
		}
	}
}
