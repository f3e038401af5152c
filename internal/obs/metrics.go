package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram bucket layout, in seconds.
// The boundaries span sub-millisecond parse-only requests through the
// daemon's 60s default request deadline; they are part of the exposition
// contract documented in DESIGN.md and validated by scripts/metricscheck.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing metric.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram is a fixed-bucket duration histogram in the Prometheus
// style: per-bucket counts cumulated at exposition time, plus a running
// sum and count, all maintained with atomics so Observe is lock-free.
type Histogram struct {
	bounds   []float64 // ascending upper bounds, seconds
	buckets  []atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64

	// exemplars holds at most one exemplar per bucket (last write wins),
	// linking the bucket to a retained flight-recorder trace. Slots stay
	// nil until the recorder is enabled, so exposition of a plain
	// histogram is byte-identical to the pre-exemplar format.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to a retained trace: the observed
// value that landed in the bucket, the trace that produced it, and when.
type Exemplar struct {
	TraceID  string
	Value    float64 // observed value, seconds
	UnixNano int64
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (seconds). Nil bounds take DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		bounds:    bounds,
		buckets:   make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[h.bucketIndex(d.Seconds())].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// bucketIndex returns the index of the bucket holding sec (the last
// slot is the +Inf overflow bucket).
func (h *Histogram) bucketIndex(sec float64) int {
	i := 0
	for ; i < len(h.bounds); i++ {
		if sec <= h.bounds[i] {
			break
		}
	}
	return i
}

// SetExemplar attaches an exemplar for the bucket d falls into,
// replacing any previous exemplar on that bucket. Call it after (or
// alongside) Observe for the same duration; the flight recorder calls
// it only for traces it actually retained, so every exposed exemplar
// resolves through GET /v1/traces/{id}.
func (h *Histogram) SetExemplar(d time.Duration, traceID string, at time.Time) {
	sec := d.Seconds()
	h.exemplars[h.bucketIndex(sec)].Store(&Exemplar{
		TraceID:  traceID,
		Value:    sec,
		UnixNano: at.UnixNano(),
	})
}

// Exemplars returns a snapshot of the per-bucket exemplars (index i
// pairs with bucket i; the last slot is +Inf). Unset buckets are nil.
func (h *Histogram) Exemplars() []*Exemplar {
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the summed observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// Quantile returns an upper-bound estimate of the q-quantile (0<q<=1)
// from the bucket counts: the upper bound of the bucket holding the
// nearest-rank observation. The last finite bound is returned for
// observations in the overflow bucket; zero when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) || rank == 0 {
		rank++ // ceil, floored at 1 — nearest-rank
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// series is one labeled instance of a metric family.
type series struct {
	labels   string            // rendered {k="v",...}, "" for unlabeled
	labelMap map[string]string // the same set, for WriteJSON
	counter  *Counter
	fn       func() float64
	hist     *Histogram
}

// value reads a counter or function series.
func (s *series) value() float64 {
	if s.counter != nil {
		return float64(s.counter.Value())
	}
	return s.fn()
}

// Sample is one series of a SeriesFunc family: its labels and current
// value.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// family is one named metric with its type, help text, and series.
type family struct {
	name, help, typ string
	series          []*series
	// samples, when set, supplies the whole series list at exposition
	// time instead (SeriesFunc).
	samples func() []Sample
}

// current returns the family's series: the registered ones, or the
// samples read now.
func (f *family) current() []*series {
	if f.samples == nil {
		return f.series
	}
	smps := f.samples()
	out := make([]*series, len(smps))
	for i, smp := range smps {
		v := smp.Value
		out[i] = &series{labels: renderLabels(smp.Labels), labelMap: smp.Labels,
			fn: func() float64 { return v }}
	}
	return out
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format (WritePrometheus) or as JSON (WriteJSON).
// Metric registration normally happens at setup time; registration and
// exposition are mutex-guarded, metric updates are atomic and
// lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels renders a label set in sorted-key order, so a series'
// identity is stable regardless of map iteration.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// add appends series s, labeled with labels, to family name. The
// registry keeps its own copy of the label map.
func (r *Registry) add(name, help, typ string, labels map[string]string, s *series) {
	s.labels, s.labelMap = renderLabels(labels), maps.Clone(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	f.series = append(f.series, s)
}

// Counter registers (or extends) a counter family and returns the
// series for the given labels.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", labels, &series{counter: c})
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// exposition time — the bridge for counters another package owns
// (engine, oracle, store, jobs, chaos, client).
func (r *Registry) CounterFunc(name, help string, labels map[string]string, fn func() float64) {
	r.add(name, help, "counter", labels, &series{fn: fn})
}

// GaugeFunc registers a gauge series read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, fn func() float64) {
	r.add(name, help, "gauge", labels, &series{fn: fn})
}

// Histogram registers a histogram series over the given bounds (nil:
// DefBuckets) and returns it.
func (r *Registry) Histogram(name, help string, bounds []float64, labels map[string]string) *Histogram {
	h := NewHistogram(bounds)
	r.add(name, help, "histogram", labels, &series{hist: h})
	return h
}

// SeriesFunc registers a family of type typ ("counter" or "gauge")
// whose whole series list is read from fn at exposition time, in the
// order fn returns it: the hook for a label set that changes while the
// process runs, such as the daemon's per-tenant families.
func (r *Registry) SeriesFunc(name, help, typ string, fn func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, samples: fn}
	r.order = append(r.order, name)
}

// formatValue renders a sample value: integers without exponent, the
// rest in Go's shortest-repr float form.
func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelJoin splices extra into a rendered label set.
func labelJoin(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// exemplarSuffix renders the OpenMetrics exemplar annotation for bucket
// i of h — ` # {trace_id="..."} <value> <unix-seconds>` — or "" when
// the bucket has none, keeping exemplar-free pages byte-identical to
// the plain text format.
func exemplarSuffix(h *Histogram, i int) string {
	e := h.exemplars[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %s", e.TraceID,
		formatValue(e.Value),
		strconv.FormatFloat(float64(e.UnixNano)/1e9, 'f', 3, 64))
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): # HELP and # TYPE lines followed by the samples,
// histograms expanded to cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.current() {
			switch {
			case s.hist != nil:
				var cum uint64
				for i, bound := range s.hist.bounds {
					cum += s.hist.buckets[i].Load()
					le := strconv.FormatFloat(bound, 'g', -1, 64)
					fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
						labelJoin(s.labels, `le="`+le+`"`), cum, exemplarSuffix(s.hist, i))
				}
				last := len(s.hist.bounds)
				cum += s.hist.buckets[last].Load()
				fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
					labelJoin(s.labels, `le="+Inf"`), cum, exemplarSuffix(s.hist, last))
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatValue(s.hist.Sum().Seconds()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.hist.Count())
			case s.counter != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
			default:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(s.fn())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// jsonSample and jsonHistogram are WriteJSON's per-series shapes.
type jsonSample struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

type jsonHistogram struct {
	Labels map[string]string `json:"labels,omitempty"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	P50    float64           `json:"p50"`
	P99    float64           `json:"p99"`
}

// WriteJSON renders every family as one JSON object keyed by family
// name. Each value lists the family's series in WritePrometheus order:
// counters and gauges as {"labels": {...}, "value": v}, histograms as
// {"labels": {...}, "count": n, "sum": s, "p50": q, "p99": q} with the
// sum in seconds and the quantiles from Quantile. labels is omitted for
// an unlabeled series.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string][]any, len(r.order))
	for _, name := range r.order {
		list := []any{}
		for _, s := range r.families[name].current() {
			if h := s.hist; h != nil {
				list = append(list, jsonHistogram{Labels: s.labelMap, Count: h.Count(),
					Sum: h.Sum().Seconds(), P50: h.Quantile(0.5), P99: h.Quantile(0.99)})
				continue
			}
			list = append(list, jsonSample{Labels: s.labelMap, Value: s.value()})
		}
		out[name] = list
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
