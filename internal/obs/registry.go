package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Registry holds named metric families and renders them in the
// Prometheus text exposition format. Registration is get-or-create:
// asking twice for the same name returns the same metric, so
// components sharing a registry (several engines in one test process,
// say) accumulate into shared series instead of colliding. Asking for
// an existing name with a different type or label set panics — that is
// a programming error, not a runtime condition.
//
// Handle acquisition takes the registry lock; the returned Counter /
// Gauge / Histogram handles are lock-free. Hot paths resolve handles
// once at construction and hold the pointers.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-global registry, used whenever a component is
// not handed an explicit one.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	}
	return "histogram"
}

// series is one labeled instance within a family.
type series struct {
	values []string
	metric any // *Counter, *Gauge or *Histogram
}

type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu     sync.Mutex
	series map[string]*series
}

// seriesKey joins label values unambiguously (values may not contain
// \xff, which cannot appear in valid UTF-8 label values anyway).
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s.metric
	}
	var m any
	switch f.kind {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	case kindHistogram:
		m = newHistogram(f.buckets)
	}
	vals := make([]string, len(values))
	copy(vals, values)
	f.series[key] = &series{values: vals, metric: m}
	return m
}

func (r *Registry) family(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s(%d labels), was %s(%d labels)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  labels,
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter returns the unlabeled counter registered under name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// Gauge returns the unlabeled gauge registered under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. Re-registering replaces the function (last writer wins), so a
// test that rebuilds a component over the shared Default registry
// observes the newest instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[""] = &series{metric: &Gauge{fn: fn}}
}

// Histogram returns the unlabeled histogram registered under name.
// buckets is only consulted on first registration (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, buckets, nil).get(nil).(*Histogram)
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns (creating if needed) the counter for the label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns (creating if needed) the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family under name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// With returns (creating if needed) the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelString renders {k="v",...} for the series, with extra appended
// as a pre-rendered pair (the histogram le label).
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every family in the Prometheus text exposition
// format, families sorted by name and series by label values, so the
// output is byte-stable for a given set of values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			s := f.series[k]
			switch m := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelString(f.labels, s.values, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.values, ""), formatFloat(m.Value()))
			case *Histogram:
				var cum uint64
				for i, upper := range m.upper {
					cum += m.counts[i].Load()
					le := `le="` + formatFloat(upper) + `"`
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, le), cum)
				}
				cum += m.counts[len(m.upper)].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, `le="+Inf"`), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.values, ""), formatFloat(m.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, s.values, ""), cum)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns the /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Snapshot flattens the registry into name→value pairs: counters and
// gauges directly (labeled series as name{k="v",...}), histograms as
// name_count, name_sum and estimated name_p50 / name_p99 — the plain
// numbers the bench/ ledger reads before and after a run to price each
// layer.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		for _, s := range f.series {
			base := f.name + labelString(f.labels, s.values, "")
			switch m := s.metric.(type) {
			case *Counter:
				out[base] = float64(m.Value())
			case *Gauge:
				out[base] = m.Value()
			case *Histogram:
				out[base+"_count"] = float64(m.Count())
				out[base+"_sum"] = m.Sum()
				if m.Count() > 0 {
					out[base+"_p50"] = m.Quantile(0.50)
					out[base+"_p99"] = m.Quantile(0.99)
				}
			}
		}
		f.mu.Unlock()
	}
	return out
}
