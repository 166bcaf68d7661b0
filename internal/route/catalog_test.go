package route

import (
	"bufio"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"socialscope"
	"socialscope/internal/obs"
	"socialscope/internal/serve"
	"socialscope/internal/vfs"
	"socialscope/internal/workload"
)

// TestMetricCatalogMatchesRegistry holds docs/observability.md's catalog
// to what a full deployment exposes: a durable leader, a follower and a
// router instrumenting into one registry, after one write, one
// checkpoint and one health sweep, must render exactly the ss_* families
// the catalog tables name, each with at least one series.
func TestMetricCatalogMatchesRegistry(t *testing.T) {
	corpus, err := workload.Travel(workload.TravelConfig{
		Users: 20, Destinations: 10, Seed: 3, VisitsPerUser: 3, TagFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	fsys := vfs.NewFaultFS(vfs.DropUnsynced)
	cfg := socialscope.Config{ItemType: "destination", Obs: reg}
	leader, err := socialscope.OpenDurable(chaosDir, corpus.Graph, cfg, socialscope.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := socialscope.OpenFollower(chaosDir, cfg, socialscope.DurableOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	var hosts []string
	for _, eng := range []*socialscope.Engine{leader, fol} {
		srv := serve.New(eng, serve.Config{FlushInterval: time.Millisecond, Obs: reg})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		hosts = append(hosts, ts.Listener.Addr().String())
	}
	rcfg := testConfig(hosts...)
	rcfg.Obs = reg
	r, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	id := corpus.Graph.MaxNodeID() + 1
	body := fmt.Sprintf(`{"mutations":[{"op":"add-node","node":{"id":%d,"types":["destination"]}}]}`, id)
	if rec := post(t, r.Handler(), "/apply", body); rec.Code != http.StatusOK {
		t.Fatalf("write: %d %s", rec.Code, rec.Body)
	}
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.CheckNow()

	rec := get(t, r.Handler(), "/metrics", nil)
	exposed := exposedFamilies(t, rec.Body.String())
	documented := catalogFamilies(t, "../../docs/observability.md")
	if !maps.Equal(exposed, documented) {
		var missing, undocumented []string
		for name := range documented {
			if !exposed[name] {
				missing = append(missing, name)
			}
		}
		for name := range exposed {
			if !documented[name] {
				undocumented = append(undocumented, name)
			}
		}
		slices.Sort(missing)
		slices.Sort(undocumented)
		t.Fatalf("catalog and /metrics disagree:\nin the catalog, not exposed: %v\nexposed, not in the catalog: %v",
			missing, undocumented)
	}
}

// exposedFamilies returns the ss_* families of a text exposition, and
// fails the test if a family is declared without a single series.
func exposedFamilies(t *testing.T, text string) map[string]bool {
	t.Helper()
	kinds := map[string]string{} // family -> TYPE
	sampled := map[string]bool{}
	for line := range strings.Lines(text) {
		line = strings.TrimSpace(line)
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			kinds[name] = kind
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && kinds[base] == "histogram" {
				name = base
			}
		}
		sampled[name] = true
	}
	out := map[string]bool{}
	for name := range kinds {
		if !strings.HasPrefix(name, "ss_") {
			continue
		}
		if !sampled[name] {
			t.Errorf("family %s exposed without a series", name)
		}
		out[name] = true
	}
	return out
}

// catalogFamilies returns the metric names in the first column of the
// tables under the "## Metric catalog" heading of the doc at path.
func catalogFamilies(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	metric := regexp.MustCompile("`(ss_[a-z0-9_]+)")
	out := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = line == "## Metric catalog"
			continue
		}
		if !in || !strings.HasPrefix(line, "|") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range metric.FindAllStringSubmatch(first, -1) {
			out[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no metric catalog tables found", path)
	}
	return out
}
