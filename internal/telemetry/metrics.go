package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"hercules/internal/stats"
)

// Counter is a monotonically increasing metric (queries routed, events
// traced). Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric (active servers, provisioned kW). Safe
// for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Value returns the most recently set value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramMetric is a streaming distribution metric backed by a
// mergeable relative-error quantile sketch (stats.Sketch): constant
// memory per dynamic-range decade, any quantile on demand, never a
// buffered sample. Safe for concurrent use.
type HistogramMetric struct {
	mu sync.Mutex
	sk stats.Sketch
}

// Observe records one observation.
func (h *HistogramMetric) Observe(x float64) {
	h.mu.Lock()
	h.sk.Add(x)
	h.mu.Unlock()
}

// Quantile returns the p-th percentile (p in [0, 100]) within the
// sketch's relative-error bound.
func (h *HistogramMetric) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sk.Quantile(p)
}

// Count returns the number of observations.
func (h *HistogramMetric) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sk.Count()
}

// snapshot summarizes the distribution under the registry lock.
func (h *HistogramMetric) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count: h.sk.Count(),
		Mean:  h.sk.Mean(),
		P50:   h.sk.Quantile(50),
		P95:   h.sk.Quantile(95),
		P99:   h.sk.Quantile(99),
		Max:   h.sk.Quantile(100),
	}
}

// Registry is the process's streaming metrics namespace: counters,
// gauges and sketch-backed histograms created (or found) by name.
// Handles are stable — look up once, update on the hot path with no
// map access. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	ctrs  map[string]*Counter
	gaugs map[string]*Gauge
	hists map[string]*HistogramMetric
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  make(map[string]*Counter),
		gaugs: make(map[string]*Gauge),
		hists: make(map[string]*HistogramMetric),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gaugs[name]
	if !ok {
		g = &Gauge{}
		r.gaugs[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the default sketch accuracy (stats.DefaultSketchAlpha).
func (r *Registry) Histogram(name string) *HistogramMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &HistogramMetric{}
		h.sk.Init(stats.DefaultSketchAlpha)
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's summary in a Snapshot.
type HistogramSnapshot struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time, JSON-serializable view of every metric,
// with deterministically ordered names.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Names returns every metric name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	if len(r.ctrs) > 0 {
		snap.Counters = make(map[string]int64, len(r.ctrs))
		for n, c := range r.ctrs {
			snap.Counters[n] = c.Value()
		}
	}
	if len(r.gaugs) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gaugs))
		for n, g := range r.gaugs {
			snap.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			snap.Histograms[n] = h.snapshot()
		}
	}
	return snap
}
