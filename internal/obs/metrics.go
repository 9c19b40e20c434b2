package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric names follow flex_<subsystem>_<name>_<unit> (docs/
// OBSERVABILITY.md); flexvet's metricname analyzer enforces the
// convention on every literal registered here.

// LatencyBuckets is the shared fixed-bucket layout for latency
// histograms: 0.5 ms to 60 s, roughly logarithmic. One layout everywhere
// keeps queue/device/RPC/end-to-end distributions comparable.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// Registry holds named metric families and renders them in Prometheus
// text exposition format 0.0.4. A nil *Registry is valid everywhere and
// registers nothing — instrumented code runs identically with metrics
// off. Registering the same name+labels twice returns the same
// instrument; registering one name under two different kinds panics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

type family struct {
	name, help, kind string
	buckets          []float64 // histograms only
	series           map[string]*series
}

// series is one labeled instrument of a family. Counters and gauges live
// in bits (float64 bits, CAS-updated); histograms in counts/sumnum (the
// _count is the +Inf bucket's cumulative total, so a scrape racing an
// observation still writes them equal); sample, when set, overrides the
// value at scrape time (CounterFunc and GaugeFunc).
type series struct {
	labels []Label
	bits   atomic.Uint64
	sample func() float64

	buckets []float64       // histogram upper bounds (the family's)
	counts  []atomic.Uint64 // per-bucket, last is +Inf
	sumnum  atomic.Uint64   // float64 bits of the histogram sum
}

func labelKey(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x01")
}

// register returns the series for name+labels, creating family and
// series as needed, or panics on a kind conflict.
func (r *Registry) register(name, help, kind string, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		if kind == "histogram" {
			s.buckets = f.buckets
			s.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing metric. The nil Counter (from a
// nil Registry) accepts and drops all updates.
type Counter struct{ s *series }

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{r.register(name, help, "counter", nil, labels)}
}

// Add increases the counter by v (negative v is dropped — counters only
// go up).
func (c Counter) Add(v float64) {
	if c.s == nil || v < 0 {
		return
	}
	addFloat(&c.s.bits, v)
}

// Inc increases the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the counter's current total (0 for the nil Counter) — the
// read side that lets a snapshot report the same number a scrape does.
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.bits.Load())
}

// Gauge is a set-to-current-value metric. The nil Gauge drops updates.
type Gauge struct{ s *series }

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{r.register(name, help, "gauge", nil, labels)}
}

// Set stores the gauge's current value.
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v (negative allowed).
func (g Gauge) Add(v float64) {
	if g.s == nil {
		return
	}
	addFloat(&g.s.bits, v)
}

// CounterFunc registers a counter whose value is sampled from f at
// scrape time — for cumulative totals another layer already tracks.
// f must be monotone non-decreasing and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "counter", nil, labels).sample = f
}

// GaugeFunc registers a gauge sampled from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, help, "gauge", nil, labels).sample = f
}

// Histogram is a fixed-bucket distribution. The nil Histogram drops
// observations.
type Histogram struct{ s *series }

// Histogram registers (or fetches) a histogram with the given upper
// bucket bounds (sorted ascending; +Inf is implicit). All series of one
// family share the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{r.register(name, help, "histogram", buckets, labels)}
}

// Observe records one sample.
func (h Histogram) Observe(v float64) {
	if h.s == nil {
		return
	}
	h.s.counts[sort.SearchFloat64s(h.s.buckets, v)].Add(1)
	addFloat(&h.s.sumnum, v)
}

// WritePrometheus renders every family in text exposition format 0.0.4:
// families sorted by name, series by label signature, histograms with
// cumulative buckets, _sum and _count. Sorting makes scrapes
// deterministic for a fixed counter state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	if f.kind == "histogram" {
		cum := uint64(0)
		for i, bound := range f.buckets {
			cum += s.counts[i].Load()
			if err := writeSample(w, f.name+"_bucket",
				append(append([]Label(nil), s.labels...), Label{"le", formatFloat(bound)}),
				float64(cum)); err != nil {
				return err
			}
		}
		cum += s.counts[len(f.buckets)].Load()
		if err := writeSample(w, f.name+"_bucket",
			append(append([]Label(nil), s.labels...), Label{"le", "+Inf"}),
			float64(cum)); err != nil {
			return err
		}
		if err := writeSample(w, f.name+"_sum", s.labels,
			math.Float64frombits(s.sumnum.Load())); err != nil {
			return err
		}
		return writeSample(w, f.name+"_count", s.labels, float64(cum))
	}
	v := math.Float64frombits(s.bits.Load())
	if s.sample != nil {
		v = s.sample()
	}
	return writeSample(w, f.name, s.labels, v)
}

func writeSample(w io.Writer, name string, labels []Label, v float64) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Key)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// addFloat CAS-adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}
