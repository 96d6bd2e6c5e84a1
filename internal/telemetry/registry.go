// Package telemetry is the simulator's observability subsystem: a
// low-overhead metrics registry (counters, gauges, power-of-two-bucket
// histograms), an epoch sampler that turns end-of-run aggregates into time
// series, and a bounded ring-buffer event tracer that can emit Chrome
// trace_event JSON.
//
// The package is deliberately free of simulator imports: the simulator
// (package core) pushes plain numbers in, and sinks (JSON, CSV, Chrome
// trace) pull snapshots out. Instrumentation is wired
// through an *Observer hung off core.Config; a nil Observer keeps the
// simulator's hot loop on a branch-predicted fast path (see
// BenchmarkObserverDisabled).
//
// Hot-path cost model: metric handles (*Counter, *Gauge, *Histogram) are
// resolved by name once, at wiring time; per-event updates are a single
// atomic add with no allocation, no map lookup, and no lock.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"thermometer/internal/detmap"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// ready to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-value-wins uint64 metric (occupancy, queue depth, …).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v uint64) { g.v.Store(v) }

// Value returns the last recorded value.
func (g *Gauge) Value() uint64 { return g.v.Load() }

// Registry is a name-indexed collection of metrics. Lookups (Counter,
// Gauge, Histogram) are get-or-create and intended for wiring time, not the
// hot path: callers keep the returned pointer and update through it.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   // guarded by mu
	gauges     map[string]*Gauge     // guarded by mu
	histograms map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = NewHistogram()
		r.histograms[name] = h
	}
	return h
}

// SetCounter force-sets a counter to v (used to import externally
// accumulated totals, e.g. per-policy statistics, at end of run).
func (r *Registry) SetCounter(name string, v uint64) {
	c := r.Counter(name)
	c.v.Store(v)
}

// Snapshot is a point-in-time copy of a registry's contents, suitable for
// JSON encoding.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the current metric values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]uint64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for _, name := range detmap.SortedKeys(r.counters) {
		s.Counters[name] = r.counters[name].Value()
	}
	for _, name := range detmap.SortedKeys(r.gauges) {
		s.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range detmap.SortedKeys(r.histograms) {
		s.Histograms[name] = r.histograms[name].Snapshot()
	}
	return s
}

// Names returns the sorted names of all registered metrics (counters,
// gauges, and histograms merged), mainly for tests and debug output.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	names = append(names, detmap.SortedKeys(r.counters)...)
	names = append(names, detmap.SortedKeys(r.gauges)...)
	names = append(names, detmap.SortedKeys(r.histograms)...)
	sort.Strings(names)
	return names
}
