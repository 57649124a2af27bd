// Package obs is the repository's dependency-free observability layer:
// atomic counters, gauges, and histograms collected in a Registry;
// lightweight span tracing with parent/child nesting and a ring-buffered
// event log (Tracer); periodic progress reporting with ETA (Progress); and
// a RunManifest that captures configuration, git revision, timings, and all
// metric snapshots as one JSON artifact per run.
//
// Everything hangs off a Scope, the handle the pipelines thread through
// their hot paths. The zero-value Scope is a complete no-op — every method
// on it, and on the nil metrics it hands out, is safe and free — so library
// callers and tests pay nothing unless a CLI opts in with -metrics-json,
// -trace, -progress, or -serve.
//
// obs is the sanctioned owner of the wall clock: the nondet analyzer bans
// time.Now in every other library package, and the obspurity analyzer keeps
// both the clock and obs reads out of decoder Decide bodies, so
// instrumentation can never leak nondeterminism into the determinism
// contract (DESIGN.md Section 7).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Now returns the current wall-clock time in nanoseconds since the Unix
// epoch. It is the one clock the library packages are allowed to read (via
// obs), so timings stay out of decoder bodies and deterministic code paths.
func Now() int64 { return time.Now().UnixNano() }

// Since returns the nanoseconds elapsed since a Now() reading.
func Since(startNS int64) int64 { return Now() - startNS }

// Kind discriminates metric snapshots.
type Kind string

// The metric kinds a Registry holds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing atomic counter. The nil Counter —
// what a disabled Scope hands out — accepts Add/Inc and reports 0.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge accepts every
// method and reports 0.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per power of two: bucket 0 holds observations
// of 0, bucket i>0 holds observations v with 2^(i-1) <= v < 2^i.
const histBuckets = 64

// Histogram accumulates int64 observations (typically durations in
// nanoseconds or batch sizes) into power-of-two buckets with atomic count,
// sum, min, and max. The nil Histogram accepts Observe and snapshots empty.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // initialized to MaxInt64 by newHistogram
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Bucket is one populated histogram bucket: Count observations with value
// at most Le (and above the previous bucket's Le).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// bucketUpperBound is the largest value bucket i holds.
func bucketUpperBound(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// MetricSnapshot is one metric's frozen state, as serialized into run
// manifests. Value carries counters and gauges; Count/Sum/Min/Max/Buckets
// carry histograms.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Registry is a named collection of metrics. Lookups get-or-create, so
// instrumentation sites never need registration boilerplate; the nil
// Registry hands out nil metrics, completing the no-op chain of the
// zero-value Scope.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot freezes every registered metric, sorted by name (ties broken by
// kind, though names are unique per kind in practice).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		s := MetricSnapshot{Name: name, Kind: KindHistogram, Count: h.count.Load(), Sum: h.sum.Load()}
		if s.Count > 0 {
			s.Min = h.min.Load()
			s.Max = h.max.Load()
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					s.Buckets = append(s.Buckets, Bucket{Le: bucketUpperBound(i), Count: n})
				}
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
