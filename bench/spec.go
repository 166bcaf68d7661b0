package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// specPath is BENCHMARK.json seen from bench/, the directory run.sh and
// `go test` both run in. The file is the one catalogue of workloads and
// metrics: the program looks units, directions and bounds up in it and
// refuses to emit a metric it does not name, or to finish a run that
// left one of its metrics unset, so the two cannot drift apart.
const specPath = "../BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricsFor returns the metrics a run in the given trace mode reports:
// the end-to-end ones with tracing off, the per-layer ones with it on.
func (s *benchSpec) metricsFor(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// measurement is one reported metric. Spread is the within-run
// steadiness (interquartile distance over the run's windows or repeats
// as a share of the median), 0 where the run yields a single value. Raw
// is the figure as the clock gave it, where Value is scaled to the
// yardstick's reference speed.
type measurement struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
	Raw    float64 `json:"raw,omitempty"`
}

// metricSet collects one run's metrics against the catalogue.
type metricSet struct {
	want map[string]metricSpec
	got  map[string]measurement
	errs []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	ms := &metricSet{want: make(map[string]metricSpec), got: make(map[string]measurement)}
	for _, m := range specs {
		ms.want[m.Name] = m
	}
	return ms
}

func (ms *metricSet) set(name string, value float64) { ms.setRaw(name, value, 0, 0) }

func (ms *metricSet) setRaw(name string, value, spread, raw float64) {
	spec, ok := ms.want[name]
	if !ok {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %q is not in BENCHMARK.json for this trace mode", name))
		return
	}
	if _, dup := ms.got[name]; dup {
		ms.errs = append(ms.errs, fmt.Sprintf("metric %q set twice", name))
	}
	ms.got[name] = measurement{Value: value, Unit: spec.Unit, Spread: spread, Raw: raw}
}

// zero marks the metrics of a layer that is not on this workload's path.
func (ms *metricSet) zero(names ...string) {
	for _, n := range names {
		ms.set(n, 0)
	}
}

// finish returns the collected metrics, or an error naming every metric
// the catalogue wants that the run did not produce (and vice versa).
func (ms *metricSet) finish() (map[string]measurement, error) {
	for name := range ms.want {
		if _, ok := ms.got[name]; !ok {
			ms.errs = append(ms.errs, fmt.Sprintf("metric %q is in BENCHMARK.json but was not measured", name))
		}
	}
	if len(ms.errs) > 0 {
		sort.Strings(ms.errs)
		return nil, fmt.Errorf("metric catalogue mismatch: %v", ms.errs)
	}
	return ms.got, nil
}
