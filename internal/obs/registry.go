// Package obs is the observability layer of the measurement system: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms)
// whose snapshots are deterministic — sorted names, canonical label
// ordering, integer-accumulated histogram sums — so they can be asserted
// byte-for-byte in tests, plus a run-scoped span tracer driven by the
// simulator's virtual clock (see trace.go) and exposition in JSON,
// Prometheus text format, and a human-readable end-of-run report (see
// expose.go).
//
// Determinism contract: every metric registered through Counter, Gauge,
// or Histogram must be driven only by virtual-clock-deterministic events
// (packet walks, fault decisions, probe verdicts), so the deterministic
// snapshot is byte-identical for the same scenario and seed at any worker
// count. Metrics that depend on wall-clock time or goroutine scheduling —
// per-worker utilization, queue wait — must be registered through the
// Volatile* variants; they are excluded from Snapshot and reported in a
// separate runtime section.
//
// The nil registry is a no-op: every method on a nil *Registry returns a
// nil metric handle, and every operation on a nil handle does nothing, so
// uninstrumented runs pay only a pointer test per event.
//
// Series are atomic, but the measurement hot paths do not update them per
// event. Code that runs on one goroutine counts into plain tallies — an
// int64 per counter, a HistTally per histogram — and adds them into the
// series with Counter.Flush and Histogram.Flush at the end of each
// measurement, so readers see a measurement's counts once it has ended.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value dimension of a metric or a span attribute.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sumScale is the fixed-point scale histogram sums accumulate at.
// Integer accumulation keeps the sum associative — and therefore
// independent of the order concurrent workers observe values in — which
// float64 addition is not.
const sumScale = 1e6

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Flush adds a goroutine-private tally into the counter and zeroes the
// tally. On a nil counter the tally is only zeroed.
func (c *Counter) Flush(tally *int64) {
	if *tally != 0 {
		c.Add(*tally)
		*tally = 0
	}
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics:
// an observation lands in the first bucket whose upper bound is >= the
// value; values above every bound land in the implicit +Inf bucket. The
// sum accumulates in fixed-point micro-units so concurrent observation
// order cannot perturb it.
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; last is +Inf
	sum    atomic.Int64   // fixed-point, sumScale units
}

// bucketOf returns the index of the bucket v lands in: the first upper
// bound >= v, or len(uppers) for the +Inf bucket.
func bucketOf(uppers []float64, v float64) int {
	i := 0
	for i < len(uppers) && v > uppers[i] {
		i++
	}
	return i
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(h.uppers, v)].Add(1)
	h.sum.Add(int64(v * sumScale))
}

// HistTally counts observations for one histogram in plain integers, for
// a single goroutine: the measurement hot path observes into a tally and
// Histogram.Flush adds it into the shared series once per measurement,
// instead of paying atomic adds per observation. It accumulates exactly
// what Observe would — the same bucket and the same fixed-point sum term
// per value — so flushed totals equal per-event totals. The zero tally
// (from a nil histogram) discards observations.
type HistTally struct {
	uppers []float64
	counts []int64 // len(uppers)+1; last is +Inf
	sum    int64   // fixed-point, sumScale units
}

// Tally returns an empty tally over h's buckets; the zero tally for a nil
// histogram.
func (h *Histogram) Tally() HistTally {
	if h == nil {
		return HistTally{}
	}
	return HistTally{uppers: h.uppers, counts: make([]int64, len(h.counts))}
}

// Observe records one value into the tally. No-op on the zero tally.
func (t *HistTally) Observe(v float64) {
	if t.counts == nil {
		return
	}
	t.counts[bucketOf(t.uppers, v)]++
	t.sum += int64(v * sumScale)
}

// Flush adds a tally taken from h (Tally) into h and zeroes the tally.
// On a nil histogram the tally is only zeroed.
func (h *Histogram) Flush(t *HistTally) {
	for i, n := range t.counts {
		if n != 0 {
			if h != nil {
				h.counts[i].Add(n)
			}
			t.counts[i] = 0
		}
	}
	if t.sum != 0 {
		if h != nil {
			h.sum.Add(t.sum)
		}
		t.sum = 0
	}
}

// ObserveDuration records a duration in seconds. No-op on nil.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) / sumScale
}

// metricKind discriminates the three metric types in the registry.
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
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, a canonical label set, and the
// typed handle.
type metric struct {
	name     string
	labels   []Label // sorted by key
	kind     metricKind
	volatile bool
	c        *Counter
	g        *Gauge
	h        *Histogram
}

// Registry is a concurrency-safe metric registry. Handles are get-or-
// create: the same (name, labels) always returns the same handle, so
// worker clones sharing a registry aggregate into the same series.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// canonical sorts a copy of the labels by key and renders the series key.
func canonical(name string, labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return name, nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// lookup returns the series for (name, labels), creating it on first use.
// A kind mismatch on an existing name is a programming error and panics.
func (r *Registry) lookup(name string, labels []Label, kind metricKind, volatile bool, uppers []float64) *metric {
	key, ls := canonical(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind, volatile: volatile}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		h := &Histogram{uppers: append([]float64(nil), uppers...)}
		h.counts = make([]atomic.Int64, len(h.uppers)+1)
		m.h = h
	}
	r.metrics[key] = m
	return m
}

// Counter returns the deterministic counter for (name, labels). Nil
// registry → nil handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, false, nil).c
}

// Gauge returns the deterministic gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, false, nil).g
}

// Histogram returns the deterministic histogram for (name, labels). The
// bucket bounds are fixed at first registration; later callers get the
// existing series regardless of the buckets they pass.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, false, buckets).h
}

// VolatileCounter is Counter for scheduling-dependent series (excluded
// from the deterministic snapshot).
func (r *Registry) VolatileCounter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindCounter, true, nil).c
}

// VolatileGauge is Gauge for scheduling-dependent series.
func (r *Registry) VolatileGauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindGauge, true, nil).g
}

// VolatileHistogram is Histogram for scheduling-dependent series (e.g.
// wall-clock queue wait).
func (r *Registry) VolatileHistogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, labels, kindHistogram, true, buckets).h
}

// BucketSnap is one histogram bucket in a snapshot: the cumulative-style
// upper bound and the non-cumulative count of observations that landed in
// it. Upper is +Inf for the overflow bucket.
type BucketSnap struct {
	Upper float64 `json:"upper"`
	Count int64   `json:"count"`
}

// MetricSnap is one series in a snapshot.
type MetricSnap struct {
	Name    string       `json:"name"`
	Kind    string       `json:"kind"`
	Labels  []Label      `json:"labels,omitempty"`
	Value   int64        `json:"value,omitempty"` // counter, gauge
	Count   int64        `json:"count,omitempty"` // histogram
	Sum     float64      `json:"sum,omitempty"`   // histogram
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time view of a registry, in a stable order:
// sorted by name, then by the canonical label rendering.
type Snapshot struct {
	Metrics []MetricSnap `json:"metrics"`
	// Runtime holds the volatile (scheduling-dependent) series. Empty in
	// deterministic snapshots.
	Runtime []MetricSnap `json:"runtime,omitempty"`
}

// snap renders one metric.
func (m *metric) snap() MetricSnap {
	s := MetricSnap{Name: m.name, Kind: m.kind.String(), Labels: m.labels}
	switch m.kind {
	case kindCounter:
		s.Value = m.c.Value()
	case kindGauge:
		s.Value = m.g.Value()
	case kindHistogram:
		s.Count = m.h.Count()
		s.Sum = m.h.Sum()
		for i := range m.h.counts {
			b := BucketSnap{Count: m.h.counts[i].Load()}
			if i < len(m.h.uppers) {
				b.Upper = m.h.uppers[i]
			} else {
				b.Upper = infBucket
			}
			s.Buckets = append(s.Buckets, b)
		}
	}
	return s
}

// infBucket marks the overflow bucket's upper bound in snapshots. JSON
// cannot carry +Inf, so the snapshot uses a sentinel; the Prometheus
// writer renders it as +Inf.
const infBucket = -1

// Snapshot returns the deterministic series only, in stable order. For
// the same scenario and seed this is byte-identical (after JSON encoding)
// at any worker count.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(false) }

// FullSnapshot returns the deterministic series plus the volatile runtime
// series (worker utilization, queue wait), the latter under Runtime.
func (r *Registry) FullSnapshot() Snapshot { return r.snapshot(true) }

func (r *Registry) snapshot(includeVolatile bool) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return labelString(ms[i].labels) < labelString(ms[j].labels)
	})
	for _, m := range ms {
		if m.volatile {
			if includeVolatile {
				s.Runtime = append(s.Runtime, m.snap())
			}
			continue
		}
		s.Metrics = append(s.Metrics, m.snap())
	}
	return s
}

// labelString renders labels as k=v,k=v for sorting and exposition.
func labelString(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// Get returns the deterministic snapshot entry for (name, labels), if the
// series exists — the assertion helper tests use.
func (s Snapshot) Get(name string, labels ...Label) (MetricSnap, bool) {
	_, ls := canonical(name, labels)
	want := labelString(ls)
	for _, m := range s.Metrics {
		if m.Name == name && labelString(m.Labels) == want {
			return m, true
		}
	}
	for _, m := range s.Runtime {
		if m.Name == name && labelString(m.Labels) == want {
			return m, true
		}
	}
	return MetricSnap{}, false
}
