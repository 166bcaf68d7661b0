package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func loadSuite(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict applies a metric's direction and bound to a pair of values.
// worsening is the change from a to b as a share of a, positive when b
// is worse. A change inside the bound is "same" only when both runs
// were steadier than the bound; otherwise nothing can be said.
func verdict(m metricSpec, a, b measurement) (v string, worsening float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worsening = (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worsening = -worsening
	}
	switch {
	case worsening > m.Bound:
		return "worse", worsening
	case worsening < -m.Bound:
		return "better", worsening
	case math.Max(a.Spread, b.Spread) > m.Bound:
		return "unresolved", worsening
	}
	return "same", worsening
}

// exactCounts are the traced run's counts that depend only on the seed
// and the code, never on timing: one client, a fixed op sequence, no
// timer-triggered work on their path. Two runs of one build must agree
// on them to the last digit.
var exactCounts = []string{
	"index.entries",
	"topk.postings_per_query", "topk.exact_scores_per_query", "topk.candidates_per_query",
	"topk.early_terminated_share",
	"serve.response_bytes",
	"wal.fsync_count", "wal.bytes_appended", "wal.bytes_per_user_byte",
	"store.checkpoints_full", "store.checkpoints_delta", "store.checkpoint_bytes_total",
}

// compareSuites prints one row per (workload, end-to-end metric) with
// both values, the ratio and its base, and the verdict; then checks the
// failed share and the exact counts. Non-zero on any "worse", on a
// higher failed share, or on a count that did not repeat.
func compareSuites(spec *benchSpec, a, b *suiteResult, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %22s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "verdict (bound)")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra.EndToEnd != nil && rb.EndToEnd != nil {
			for _, m := range spec.EndToEnd {
				ma, mb := ra.EndToEnd.Metrics[m.Name], rb.EndToEnd.Metrics[m.Name]
				v, worsening := verdict(m, ma, mb)
				if v == "worse" {
					code = 1
				}
				fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %9.3f of %-9.4g  %s (%+.1f%% vs %.0f%%, spread %.1f%%/%.1f%%)\n",
					wl.Name, m.Name, ma.Value, mb.Value, share(mb.Value, ma.Value), ma.Value,
					v, 100*worsening, 100*m.Bound, 100*ma.Spread, 100*mb.Spread)
			}
			fa := share(float64(ra.EndToEnd.Failed), float64(ra.EndToEnd.Attempted))
			fb := share(float64(rb.EndToEnd.Failed), float64(rb.EndToEnd.Attempted))
			v := "same"
			if fb > fa {
				v, code = "worse", 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6f %14.6f %22s  %s (must not rise)\n", wl.Name, "failed_share", fa, fb, "", v)
		}
		if ra.PerLayer != nil && rb.PerLayer != nil {
			for _, name := range exactCounts {
				ca, cb := ra.PerLayer.Metrics[name].Value, rb.PerLayer.Metrics[name].Value
				if ca != cb {
					code = 1
					fmt.Fprintf(w, "%-14s %-34s count did not repeat: %v vs %v\n", wl.Name, name, ca, cb)
				}
			}
		}
	}
	if code == 0 {
		fmt.Fprintln(w, "no metric worse than its bound; failed share did not rise; exact counts repeat")
	}
	return code
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var suites [2]*suiteResult
	for i, path := range []string{pathA, pathB} {
		var err error
		if suites[i], err = loadSuite(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return compareSuites(spec, suites[0], suites[1], stdout)
}

const baselineDir = "baseline"

// runAA is the A/A check: the whole suite twice on one build, compared
// by the benchmark's own rules, and kept under baseline/ as the ledger
// entry later changes are read against.
func runAA(cfg runConfig, stdout, stderr io.Writer) int {
	var runs [2]suiteResult
	code := 0
	for i := range runs {
		fmt.Fprintf(stdout, "\n######## A/A run %d of 2 ########\n", i+1)
		var c int
		runs[i], c = runSuite(cfg, -1, stdout, stderr)
		code = max(code, c)
		if err := writeJSON(filepath.Join(baselineDir, fmt.Sprintf("aa_run%d.json", i+1)), runs[i]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := writeJSON(filepath.Join(baselineDir, "machine.json"), runs[0].Machine); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n######## A/A comparison ########\n")
	return max(code, compareSuites(cfg.spec, &runs[0], &runs[1], stdout))
}
