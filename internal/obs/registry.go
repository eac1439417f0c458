// Package obs is the sweep-level observability layer: a zero-dependency
// typed metrics registry with Prometheus text exposition, a structured
// job-lifecycle event log (dsre-events/v4), per-job lifecycle spans with a
// per-worker Chrome-trace export, and the live-progress state behind the
// CLIs' -status HTTP endpoint (internal/obs/status).
//
// The package is deterministic-when-off by construction and is audited by
// dsre-lint's determinism analyzer: it never reads the wall clock (every
// hook takes the caller's time.Time), never spawns goroutines (the HTTP
// server lives in the internal/obs/status subpackage, outside the audited
// set), and never iterates maps with order-dependent effects.  Consumers
// (the sweep engine) keep every hook behind a single nil check, so a
// disabled observer costs one pointer compare and zero allocations.
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

// Counter is a monotonically increasing metric with atomic updates.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("obs: counter %s decremented by %d", c.name, n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a metric that can go up and down, with atomic updates.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the gauge by a (possibly negative) delta.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bound cumulative histogram.  Bounds are upper
// bucket bounds in ascending order; an implicit +Inf bucket catches the
// tail.  Observations and the running sum are atomic, so concurrent
// workers can observe without a lock.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits    atomic.Uint64  // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// DurationBounds are the default bucket bounds (seconds) for job-latency
// histograms: 1ms up to 5 minutes, roughly ×2.5 per step.
var DurationBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Snapshot is a point-in-time copy of every registered metric, sorted by
// name within each kind, so consumers (the progress JSON, tests) see a
// stable, race-free view.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot; Counts are per-bucket (not
// cumulative) with the +Inf bucket last.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Counter returns the named counter from a snapshot, or 0.
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge from a snapshot, or 0.
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Registry holds typed metrics and renders them in Prometheus text
// exposition format.  Registration takes a lock; updates on the returned
// handles are lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	names    map[string]bool
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) registerLocked(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if r.names[name] {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names[name] = true
}

// Counter registers and returns a new counter.  Duplicate or malformed
// names panic: metric registration is programmer-controlled.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name)
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name)
	g := &Gauge{name: name, help: help}
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram registers and returns a new histogram with the given ascending
// upper bucket bounds (a trailing +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %v", name, bounds[i]))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name)
	h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.hists = append(r.hists, h)
	return h
}

// Snapshot copies every metric's current value, each kind sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()

	var s Snapshot
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Value: g.Value()})
	}
	for _, h := range hists {
		hv := HistogramValue{Name: h.name, Bounds: append([]float64(nil), h.bounds...)}
		for i := range h.counts {
			n := h.counts[i].Load()
			hv.Counts = append(hv.Counts, n)
			hv.Count += n
		}
		hv.Sum = math.Float64frombits(h.sumBits.Load())
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), all metrics sorted by name, so scrapes and
// golden tests are deterministic for a given set of values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type entry struct {
		name, help, kind string
		c                *Counter
		g                *Gauge
		h                *Histogram
	}
	entries := make([]entry, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		entries = append(entries, entry{name: c.name, help: c.help, kind: "counter", c: c})
	}
	for _, g := range r.gauges {
		entries = append(entries, entry{name: g.name, help: g.help, kind: "gauge", g: g})
	}
	for _, h := range r.hists {
		entries = append(entries, entry{name: h.name, help: h.help, kind: "histogram", h: h})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	for _, e := range entries {
		if e.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(e.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch {
		case e.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.c.Value())
		case e.g != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.g.Value())
		case e.h != nil:
			err = writeHistogram(w, e.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, h *Histogram) error {
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum); err != nil {
			return err
		}
	}
	sum := math.Float64frombits(h.sumBits.Load())
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, cum)
	return err
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validMetricName enforces the Prometheus metric-name charset:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
