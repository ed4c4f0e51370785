// Package obs is XRefine's observability layer: a dependency-free metrics
// registry (counters, gauges, fixed-bucket histograms, with optional label
// dimensions) plus a lightweight per-query span tracer, the flight
// recorder's event ring and the trace store that retains sampled and slow
// queries. Everything is stdlib-only and safe for concurrent use.
//
// The registry follows the Prometheus data model — metric families with a
// name, HELP text, a TYPE, and zero or more label dimensions — and renders
// itself in the Prometheus text exposition format (WritePrometheus) and as
// JSON (Snapshot). Registration is idempotent: asking for an
// already-registered family returns the existing one, so independent
// components can share a registry without coordinating construction order.
//
// The hot-path cost model is the design constraint: incrementing a
// pre-resolved *Counter is one atomic add, observing a *Histogram is one
// atomic add per bucket boundary crossed plus a CAS on the sum, and every
// metric method is nil-receiver safe, so a disabled registry (see
// Disabled) makes all instrumentation collapse to a nil check.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric family types as exposed on the TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families by name. The zero value is NOT usable;
// construct with NewRegistry. A nil *Registry is valid everywhere and
// disables every metric it is asked for (see Disabled).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// flight is the lazily-created always-on event ring (see flight.go);
	// it lives on the registry so every component sharing the registry
	// shares one recorder.
	flight *FlightRecorder
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// Disabled returns the disabled registry: every Counter/Gauge/Histogram
// request yields a nil metric whose methods no-op. It exists so a caller
// can build an uninstrumented engine for overhead comparisons.
func Disabled() *Registry { return nil }

// family is one registered metric family.
type family struct {
	name   string
	help   string
	typ    string
	labels []string // label names; empty for unlabeled families

	mu       sync.Mutex
	children map[string]*child // keyed by joined label values
	buckets  []float64         // histogram families only
	fn       func() float64    // counterFunc/gaugeFunc families only
}

// child is one (label-value tuple) series of a family.
type child struct {
	labelVals []string
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
}

// register returns the family for name, creating it on first use. The
// help/type/labels of later registrations must match the first; a
// mismatch panics, because two components disagreeing on a metric's
// meaning is a programming error no fallback can paper over.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with labels %v, was %v",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childFor returns the series of the given label values, creating it on
// first use.
func (f *family) childFor(vals []string) *child {
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{labelVals: append([]string(nil), vals...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = newHistogram(f.buckets)
	}
	f.children[key] = c
	return c
}

// Counter registers (or finds) an unlabeled counter family and returns
// its single series. Nil registries return a nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeCounter, nil).childFor(nil).counter
}

// Gauge registers (or finds) an unlabeled gauge family and returns its
// single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, typeGauge, nil).childFor(nil).gauge
}

// Histogram registers (or finds) an unlabeled histogram family with the
// given bucket upper bounds (ascending; +Inf is implicit) and returns its
// single series. Nil buckets use DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.register(name, help, typeHistogram, nil)
	f.mu.Lock()
	if f.buckets == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return f.childFor(nil).hist
}

// CounterVec registers (or finds) a counter family with label dimensions.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// GaugeVec registers (or finds) a gauge family with label dimensions.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels)}
}

// HistogramVec registers (or finds) a histogram family with label
// dimensions and the given bucket bounds (nil uses DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	f := r.register(name, help, typeHistogram, labels)
	f.mu.Lock()
	if f.buckets == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	f.mu.Unlock()
	return &HistogramVec{f: f}
}

// CounterFunc registers a counter family whose value is read from fn at
// exposition time — the bridge for components that keep their own atomic
// counters (kvstore, index) and must stay free of obs imports.
// Re-registering an existing name replaces the function, so rebuilt
// components (a reopened store) keep reporting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, typeCounter, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc is CounterFunc with gauge semantics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, typeGauge, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Counter is a monotonically increasing uint64. All methods are nil-safe.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n (n < 0 is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 for nil counters).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64. All methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative deltas decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value (0 for nil gauges).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are latency buckets in seconds, covering sub-millisecond
// partition walks through multi-second degraded scans.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram: cumulative bucket counts, a
// total count, and a sum. All methods are nil-safe; the Observe path is
// lock-free, and the exemplar slots (one per bucket, written only for
// sampled requests) take a short mutex off the hot path.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // one per bound; +Inf is the total count
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum

	exMu sync.Mutex
	ex   []Exemplar // lazily sized len(bounds)+1; zero TraceID = empty slot
}

// Exemplar links one histogram bucket to a retained trace: the observed
// value and the trace ID resolvable at /debug/trace/<id>. The OpenMetrics
// exposition (WriteOpenMetrics) renders it on the bucket's sample line.
type Exemplar struct {
	Value  float64
	Trace  TraceID
	TimeNS int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// bucketIndex returns the bucket slot v lands in; len(bounds) is +Inf.
func (h *Histogram) bucketIndex(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// ObserveExemplar records one value and pins it as the bucket's exemplar,
// linking the bucket to a retained trace. Only sampled-and-retained
// requests call this — everything else takes the lock-free Observe — so
// the mutex and the lazy slot allocation never touch the hot path.
func (h *Histogram) ObserveExemplar(v float64, trace TraceID, now time.Time) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == 0 {
		return
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]Exemplar, len(h.bounds)+1)
	}
	h.ex[h.bucketIndex(v)] = Exemplar{Value: v, Trace: trace, TimeNS: now.UnixNano()}
	h.exMu.Unlock()
}

// exemplars snapshots the per-bucket exemplar slots (nil when none were
// ever recorded).
func (h *Histogram) exemplars() []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.ex == nil {
		return nil
	}
	return append([]Exemplar(nil), h.ex...)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// cumulative returns the cumulative per-bucket counts (Prometheus bucket
// semantics: each bucket includes everything below it).
func (h *Histogram) cumulative() []uint64 {
	out := make([]uint64, len(h.bounds))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		out[i] = acc
	}
	return out
}

// CounterVec is a counter family with label dimensions. All methods are
// nil-safe.
type CounterVec struct{ f *family }

// With returns the counter series for the given label values (one value
// per registered label name, in order).
func (v *CounterVec) With(vals ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(vals) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(vals)))
	}
	return v.f.childFor(vals).counter
}

// GaugeVec is a gauge family with label dimensions. All methods are
// nil-safe.
type GaugeVec struct{ f *family }

// With returns the gauge series for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge {
	if v == nil {
		return nil
	}
	if len(vals) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(vals)))
	}
	return v.f.childFor(vals).gauge
}

// HistogramVec is a histogram family with label dimensions. All methods
// are nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram series for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(vals) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(vals)))
	}
	return v.f.childFor(vals).hist
}

// sortedFamilies returns families in name order (stable exposition).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's series in label-value order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	cs := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		cs = append(cs, c)
	}
	fn := f.fn
	f.mu.Unlock()
	if fn != nil {
		// Function-backed families expose exactly one synthetic series.
		return nil
	}
	sort.Slice(cs, func(i, j int) bool {
		return strings.Join(cs[i].labelVals, "\x00") < strings.Join(cs[j].labelVals, "\x00")
	})
	return cs
}

// Snapshot renders every metric as a JSON-friendly map: unlabeled
// counters/gauges map name -> number, labeled families map name -> one
// entry per series keyed by "k=v,..." label signature, histograms map
// name -> {count, sum}.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	for _, f := range r.sortedFamilies() {
		f.mu.Lock()
		fn := f.fn
		f.mu.Unlock()
		if fn != nil {
			out[f.name] = fn()
			continue
		}
		if len(f.labels) == 0 {
			c := f.childFor(nil)
			switch f.typ {
			case typeCounter:
				out[f.name] = c.counter.Value()
			case typeGauge:
				out[f.name] = c.gauge.Value()
			case typeHistogram:
				out[f.name] = map[string]any{"count": c.hist.Count(), "sum": c.hist.Sum()}
			}
			continue
		}
		series := make(map[string]any)
		for _, c := range f.sortedChildren() {
			parts := make([]string, len(f.labels))
			for i, l := range f.labels {
				parts[i] = l + "=" + c.labelVals[i]
			}
			key := strings.Join(parts, ",")
			switch f.typ {
			case typeCounter:
				series[key] = c.counter.Value()
			case typeGauge:
				series[key] = c.gauge.Value()
			case typeHistogram:
				series[key] = map[string]any{"count": c.hist.Count(), "sum": c.hist.Sum()}
			}
		}
		out[f.name] = series
	}
	return out
}

// SnapshotTotal reads counter family name out of a Snapshot: its value,
// or the sum over its label series; 0 when the family is absent. Counters
// a component keeps on the registry are read back this way rather than
// through a second, private book.
func SnapshotTotal(snap map[string]any, name string) uint64 {
	switch v := snap[name].(type) {
	case uint64:
		return v
	case map[string]any:
		var n uint64
		for _, s := range v {
			c, _ := s.(uint64)
			n += c
		}
		return n
	}
	return 0
}
