package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketEdges pins the "le" semantics: a value exactly on a
// bucket's upper bound lands in that bucket, a hair above lands in the
// next, and anything above every bound lands in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_seconds", []float64{1, 2, 5})
	for _, v := range []float64{0, 1, 1.0001, 2, 2.5, 5, 5.0001, 100} {
		h.Observe(v)
	}
	m, ok := r.Snapshot().Get("edge_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{2, 2, 2, 2} // [≤1, ≤2, ≤5, +Inf]
	if len(m.Buckets) != len(wantCounts) {
		t.Fatalf("buckets = %d, want %d", len(m.Buckets), len(wantCounts))
	}
	for i, want := range wantCounts {
		if m.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, m.Buckets[i].Count, want)
		}
	}
	if m.Buckets[3].Upper != infBucket {
		t.Errorf("overflow bucket upper = %v, want sentinel %v", m.Buckets[3].Upper, float64(infBucket))
	}
	if m.Count != 8 {
		t.Errorf("count = %d, want 8", m.Count)
	}
	const wantSum = 0 + 1 + 1.0001 + 2 + 2.5 + 5 + 5.0001 + 100
	if diff := m.Sum - wantSum; diff > 1e-4 || diff < -1e-4 {
		t.Errorf("sum = %v, want %v", m.Sum, wantSum)
	}
	if h.Count() != 8 {
		t.Errorf("handle Count = %d, want 8", h.Count())
	}
}

// TestHistogramDuration covers the duration shim.
func TestHistogramDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur_seconds", TimeBuckets)
	h.ObserveDuration(120 * time.Second)
	if got := h.Sum(); got != 120 {
		t.Errorf("sum = %v, want 120", got)
	}
}

// TestNilSafety: every handle method and snapshot call must be a no-op on
// the nil registry — the uninstrumented path the whole codebase relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", CountBuckets)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Error("nil registry snapshot must be empty")
	}

	var tr *Tracer
	sp := tr.Start("root", 0)
	sp.SetAttr("k", "v")
	child := sp.StartChild("child", 1)
	child.End(2)
	sp.End(3)
	if tr.Snapshot() != nil || tr.SpanCount() != 0 {
		t.Error("nil tracer must stay empty")
	}
}

// TestSnapshotCanonicalOrder: registration order and label argument order
// must not leak into the snapshot.
func TestSnapshotCanonicalOrder(t *testing.T) {
	build := func(flip bool) []byte {
		r := NewRegistry()
		if flip {
			r.Counter("z_total").Inc()
			r.Counter("a_total", L("x", "1"), L("b", "2")).Inc()
			r.Counter("a_total", L("b", "1"), L("x", "2")).Inc()
		} else {
			r.Counter("a_total", L("x", "2"), L("b", "1")).Inc()
			r.Counter("a_total", L("b", "2"), L("x", "1")).Inc()
			r.Counter("z_total").Inc()
		}
		raw, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return raw
	}
	if a, b := build(false), build(true); !bytes.Equal(a, b) {
		t.Errorf("snapshot depends on registration order:\n%s\n%s", a, b)
	}
}

// TestVolatileSeparation: Volatile* series stay out of the deterministic
// snapshot and show up under Runtime in the full one.
func TestVolatileSeparation(t *testing.T) {
	r := NewRegistry()
	r.Counter("det_total").Inc()
	r.VolatileCounter("sched_total").Inc()
	r.VolatileGauge("sched_workers").Set(4)
	r.VolatileHistogram("sched_wait_seconds", TimeBuckets).Observe(0.5)

	det := r.Snapshot()
	if len(det.Metrics) != 1 || det.Metrics[0].Name != "det_total" {
		t.Fatalf("deterministic snapshot = %+v, want only det_total", det.Metrics)
	}
	if len(det.Runtime) != 0 {
		t.Error("deterministic snapshot must not carry runtime series")
	}
	full := r.FullSnapshot()
	if len(full.Runtime) != 3 {
		t.Fatalf("runtime series = %d, want 3", len(full.Runtime))
	}
	if _, ok := full.Get("sched_workers"); !ok {
		t.Error("Get should find volatile series in a full snapshot")
	}
}

// TestKindMismatchPanics: re-registering a name under a different kind is
// a programming error the registry refuses to mask.
func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Error("gauge re-registration of a counter should panic")
		}
	}()
	r.Gauge("x_total")
}

// TestRegistryConcurrency hammers get-or-create and the handle ops from
// many goroutines. Under -race this proves the lock covers the map and the
// atomics carry the rest; the exact final values prove no update was lost.
func TestRegistryConcurrency(t *testing.T) {
	const goroutines, perG = 16, 500
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("hammer_total", L("shard", "a")).Inc()
				r.Histogram("hammer_seconds", []float64{0.5}).Observe(0.25)
				r.Gauge("hammer_gauge").Set(1)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hammer_total", L("shard", "a")).Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	h := r.Histogram("hammer_seconds", nil)
	if h.Count() != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if want := 0.25 * goroutines * perG; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v (fixed-point accumulation must be exact)", h.Sum(), want)
	}
}

// TestTracerCanonicalSnapshot: sibling append order — the one thing worker
// scheduling can perturb — must not change the snapshot.
func TestTracerCanonicalSnapshot(t *testing.T) {
	build := func(order []int) []byte {
		tr := NewTracer()
		root := tr.Start("root", 0)
		for _, i := range order {
			attrs := []Label{L("target", string(rune('a'+i)))}
			s := root.StartChild("child", time.Duration(0), attrs...)
			s.StartChild("grand", time.Duration(i+1)*time.Millisecond).End(time.Duration(i+2) * time.Millisecond)
			s.End(time.Duration(i+10) * time.Millisecond)
		}
		root.End(time.Second)
		raw, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return raw
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if !bytes.Equal(a, b) {
		t.Errorf("span snapshot depends on append order:\n%s\n%s", a, b)
	}
}

// TestTracerPreOrderIDs: IDs number the sorted tree in pre-order.
func TestTracerPreOrderIDs(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", 0)
	c2 := root.StartChild("b", 2)
	c1 := root.StartChild("a", 1)
	c1.StartChild("a1", 1).End(2)
	c2.End(3)
	c1.End(3)
	root.End(4)

	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("roots = %d, want 1", len(snap))
	}
	r := snap[0]
	if r.ID != 1 {
		t.Errorf("root ID = %d, want 1", r.ID)
	}
	if len(r.Children) != 2 || r.Children[0].Name != "a" || r.Children[1].Name != "b" {
		t.Fatalf("children not sorted by start: %+v", r.Children)
	}
	if r.Children[0].ID != 2 || r.Children[0].Children[0].ID != 3 || r.Children[1].ID != 4 {
		t.Errorf("IDs not pre-order: a=%d a1=%d b=%d, want 2 3 4",
			r.Children[0].ID, r.Children[0].Children[0].ID, r.Children[1].ID)
	}
	if tr.SpanCount() != 4 {
		t.Errorf("SpanCount = %d, want 4", tr.SpanCount())
	}
}

// TestPrometheusExposition: cumulative le buckets, +Inf rendering, _sum and
// _count lines, and the runtime marker.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", L("kind", "a")).Add(3)
	h := r.Histogram("lat_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	r.VolatileGauge("workers").Set(2)

	var b strings.Builder
	if err := r.FullSnapshot().WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`reqs_total{kind="a"} 3`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		`lat_seconds_sum 11`,
		`lat_seconds_count 3`,
		"# runtime (scheduling-dependent) series",
		"workers 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestReportAndJSON smoke-covers the remaining writers.
func TestReportAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("simnet_packets_total").Add(7)
	r.Histogram("centrace_probe_seconds", []float64{1}).Observe(0.5)
	var rep strings.Builder
	r.FullSnapshot().WriteReport(&rep)
	if !strings.Contains(rep.String(), "simnet") || !strings.Contains(rep.String(), "count=1") {
		t.Errorf("report missing expected lines:\n%s", rep.String())
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("json: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(s.Metrics) != 2 {
		t.Errorf("round-tripped metrics = %d, want 2", len(s.Metrics))
	}

	tr := NewTracer()
	tr.Start("root", 0).End(1)
	buf.Reset()
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !strings.Contains(buf.String(), `"name": "root"`) {
		t.Errorf("trace JSON missing root span:\n%s", buf.String())
	}
}

// TestTallyFlushMatchesObserve: a counter and a histogram fed through
// goroutine-private tallies and flushed must snapshot byte-identically to
// series fed one event at a time — the histogram sum included, which a
// float sum converted at flush would miss in its last fixed-point units —
// and a flush must zero the tally so a second flush adds nothing.
func TestTallyFlushMatchesObserve(t *testing.T) {
	values := []float64{0, 0.0000014, 0.3333333, 1, 1.0001, 2.5, 7.77777777, 100, 1e6}
	direct := NewRegistry()
	dc := direct.Counter("events_total")
	dh := direct.Histogram("value_seconds", TimeBuckets)
	for _, v := range values {
		dc.Inc()
		dh.Observe(v)
	}

	tallied := NewRegistry()
	tc := tallied.Counter("events_total")
	th := tallied.Histogram("value_seconds", TimeBuckets)
	var n int64
	tally := th.Tally()
	for i, v := range values {
		n++
		tally.Observe(v)
		if i == 3 { // a flush mid-stream changes nothing either
			tc.Flush(&n)
			th.Flush(&tally)
		}
	}
	for range 2 {
		tc.Flush(&n)
		th.Flush(&tally)
	}

	want, _ := json.Marshal(direct.Snapshot())
	got, _ := json.Marshal(tallied.Snapshot())
	if !bytes.Equal(want, got) {
		t.Errorf("tallied snapshot differs from per-event snapshot:\n%s\n%s", got, want)
	}
	if n != 0 || tally.sum != 0 || tally.counts[len(tally.counts)-1] != 0 {
		t.Errorf("flush left the tallies non-zero: n=%d tally=%+v", n, tally)
	}
}

// TestTallyNilSeries: tallies of nil series discard what they count, and
// flushing them zeroes the tally and touches nothing.
func TestTallyNilSeries(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	h := r.Histogram("h", CountBuckets)
	n := int64(3)
	c.Flush(&n)
	tally := h.Tally()
	tally.Observe(1)
	h.Flush(&tally)
	if n != 0 || tally.counts != nil || tally.sum != 0 {
		t.Errorf("nil-series flush: n=%d tally=%+v", n, tally)
	}
}
