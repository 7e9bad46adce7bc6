// Package telemetry is the metrics plane of the serving stack: a small,
// dependency-free registry of counters, gauges and fixed-bucket latency
// histograms, rendered in the Prometheus text exposition format (GET
// /metrics on ccspd). The ROADMAP's serving claim - sustained query
// traffic against preprocessed engines - is only checkable with a
// metrics surface to read QPS, latency distribution and shed load from;
// this package is that surface, shared by the HTTP server, the query
// engine, and the cluster routing client.
//
// Design constraints, in order:
//
//  1. Zero dependencies. The repo's no-new-deps rule applies to the
//     daemon too, so the Prometheus client library is out; the text
//     format is simple enough to emit directly.
//  2. Atomic hot paths. A counter increment or histogram observation on
//     the query path is a handful of atomic adds - no locks, no
//     allocation - so instrumentation never becomes the bottleneck it
//     is supposed to measure.
//  3. Get-or-create registration. Registering the same (name, labels)
//     twice returns the same metric, so instrumented packages can
//     declare their metrics at use sites without init-order
//     choreography, and tests can re-create servers freely.
//
// Metrics live in a Registry; Default is the process-global one that
// package-level instrumentation (engine, cluster client) records into,
// while the HTTP server builds a private registry per Server so tests
// stay isolated. A serving daemon exposes both: see Handler.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric. Metrics with the
// same name and different label sets are children of one family and
// render under one # TYPE header.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored (counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning sub-millisecond cache hits to the multi-second simulated
// APSP runs a loaded daemon legitimately serves.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observation is a
// linear scan over ~14 bounds plus two atomic adds - no locks - so it
// is safe (and cheap) on concurrent request paths. Bounds are upper
// bounds in seconds; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// Observe records one value (in seconds, for latency histograms).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricKind tags a family's Prometheus type.
type metricKind uint8

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
	default:
		return "histogram"
	}
}

// child is one (labels, metric) member of a family.
type child struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64 // read-through child (CounterFunc/GaugeFunc)
}

// family groups the children sharing one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*child // keyed by canonical label encoding
	order    []string          // registration order, for stable output
}

// Registry holds metric families and renders them; safe for concurrent
// registration, recording and rendering.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-global registry package-level instrumentation
// (engine preprocess/query timings, cluster failovers) records into.
var Default = NewRegistry()

// labelKey is the canonical child key: labels sorted by name.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup returns the family for (name, kind), creating it if absent.
// A name reused with a different kind panics: that is a programming
// error no caller should swallow.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// childOf returns the family's child for labels, creating it with mk if
// absent.
func (f *family) childOf(labels []Label, mk func() *child) *child {
	key := labelKey(labels)
	c, ok := f.children[key]
	if !ok {
		c = mk()
		c.labels = append([]Label(nil), labels...)
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// Counter returns the counter for (name, labels), registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, help, kindCounter).childOf(labels, func() *child { return &child{ctr: &Counter{}} })
	return c.ctr
}

// Gauge returns the gauge for (name, labels), registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, help, kindGauge).childOf(labels, func() *child { return &child{gauge: &Gauge{}} })
	return c.gauge
}

// CounterFunc registers a read-through counter whose value is fn() at
// scrape time - for sources that already count (the LRU's hit/miss
// tallies) where double-counting into a second atomic would drift.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindCounter).childOf(labels, func() *child { return &child{fn: fn} })
}

// GaugeFunc registers a read-through gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindGauge).childOf(labels, func() *child { return &child{fn: fn} })
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (nil = DefBuckets), registering it on first use.
// Bounds must be sorted ascending; the first registration wins, so
// children of one family always share buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.lookup(name, help, kindHistogram).childOf(labels, func() *child {
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		return &child{hist: h}
	})
	return c.hist
}
