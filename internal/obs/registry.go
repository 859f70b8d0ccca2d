// Package obs is the stdlib-only observability subsystem: a metric
// registry (counters, gauges, fixed-bucket histograms) with deterministic
// Prometheus text exposition, an embeddable net/http server that serves
// /metrics, JSON series endpoints over the tsdb query API and
// health/readiness probes, and a self-metering layer that prices the
// monitor's own cost per estimation tick (the "what does the power meter
// itself cost?" question) as highrpm_overhead_* series.
//
// Exposition is golden-testable by construction: metric families are
// emitted in sorted name order and a family's series in sorted
// label-value order, so the same registry state always renders the same
// bytes. All registry operations are safe for concurrent use.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind discriminates the three instrument types.
type MetricKind int

// The instrument types.
const (
	// KindCounter is a monotonically increasing total.
	KindCounter MetricKind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onGather []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric with a fixed label-name set and one series
// per distinct label-value tuple.
type family struct {
	name    string
	help    string
	kind    MetricKind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu     sync.Mutex
	series map[string]*instrument // key: label values joined by \xff
}

// instrument is one series of a family: the shared value cell all three
// public instrument types wrap.
type instrument struct {
	labelValues []string

	bits atomic.Uint64 // counter/gauge value as float64 bits

	// Histogram state, guarded by hmu.
	hmu     sync.Mutex
	bcounts []uint64
	hsum    float64
	hcount  uint64
}

func (m *instrument) load() float64   { return math.Float64frombits(m.bits.Load()) }
func (m *instrument) store(v float64) { m.bits.Store(math.Float64bits(v)) }
func (m *instrument) addFloat(d float64) {
	for {
		old := m.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if m.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Counter is a monotonically increasing total. Set exists for mirroring
// an externally maintained cumulative counter (e.g. a Stats snapshot)
// into the exposition; it must never be used to decrease a live counter.
type Counter struct{ m *instrument }

// Inc adds one.
func (c Counter) Inc() { c.m.addFloat(1) }

// Add adds d (d must be ≥ 0 for a well-formed counter).
func (c Counter) Add(d float64) { c.m.addFloat(d) }

// Set overwrites the value — only for mirroring snapshot counters.
func (c Counter) Set(v float64) { c.m.store(v) }

// Value reads the current value.
func (c Counter) Value() float64 { return c.m.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ m *instrument }

// Set overwrites the value.
func (g Gauge) Set(v float64) { g.m.store(v) }

// Add adds d (negative to subtract).
func (g Gauge) Add(d float64) { g.m.addFloat(d) }

// Value reads the current value.
func (g Gauge) Value() float64 { return g.m.load() }

// Histogram is a fixed-bucket distribution; buckets are cumulative in the
// Prometheus style and a +Inf bucket is implicit.
type Histogram struct {
	m       *instrument
	buckets []float64
}

// Observe records one value.
func (h Histogram) Observe(v float64) {
	h.m.hmu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.m.bcounts[i]++
		}
	}
	h.m.hsum += v
	h.m.hcount++
	h.m.hmu.Unlock()
}

// Count reads how many values were observed.
func (h Histogram) Count() uint64 {
	h.m.hmu.Lock()
	defer h.m.hmu.Unlock()
	return h.m.hcount
}

// Sum reads the sum of observed values.
func (h Histogram) Sum() float64 {
	h.m.hmu.Lock()
	defer h.m.hmu.Unlock()
	return h.m.hsum
}

// CounterVec / GaugeVec address a family's series by label values.
type (
	// CounterVec is a counter family with labels.
	CounterVec struct{ f *family }
	// GaugeVec is a gauge family with labels.
	GaugeVec struct{ f *family }
)

// With returns the counter for the given label values (created on first
// use). The number of values must match the registered label names.
func (v CounterVec) With(values ...string) Counter {
	return Counter{v.f.get(values)}
}

// With returns the gauge for the given label values.
func (v GaugeVec) With(values ...string) Gauge {
	return Gauge{v.f.get(values)}
}

const labelSep = "\xff"

func (f *family) get(values []string) *instrument {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.series[key]
	if m == nil {
		m = &instrument{labelValues: append([]string(nil), values...)}
		if f.kind == KindHistogram {
			m.bcounts = make([]uint64, len(f.buckets))
		}
		f.series[key] = m
	}
	return m
}

// register creates or fetches a family, panicking on a redefinition with
// a different shape — that is a programming error, not a runtime state.
func (r *Registry) register(name, help string, kind MetricKind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind or label set", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different label names", name))
			}
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  map[string]*instrument{},
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) Counter {
	return Counter{r.register(name, help, KindCounter, nil, nil).get(nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) Gauge {
	return Gauge{r.register(name, help, KindGauge, nil, nil).get(nil)}
}

// Histogram registers (or fetches) an unlabeled fixed-bucket histogram.
// Buckets are upper bounds in ascending order; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	f := r.register(name, help, KindHistogram, nil, buckets)
	return Histogram{f.get(nil), f.buckets}
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{r.register(name, help, KindCounter, labels, nil)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.register(name, help, KindGauge, labels, nil)}
}

// OnGather registers a callback run (in registration order) at the start
// of every exposition, before any family is rendered. Components use it
// to mirror a consistent stats snapshot into their gauges once per
// scrape instead of on every update.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.onGather = append(r.onGather, fn)
	r.mu.Unlock()
}

// snapshot returns the families sorted by name and the gather callbacks.
func (r *Registry) snapshot() ([]*family, []func()) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	cbs := append([]func(){}, r.onGather...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams, cbs
}
