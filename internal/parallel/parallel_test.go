package parallel

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"

	"cendev/internal/obs"
)

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		ForEachOpt(n, workers, Options{}, func(_, i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

func TestForEachWorkerIDsExclusive(t *testing.T) {
	const n, workers = 200, 4
	// Each worker id must never run two calls concurrently: that is the
	// contract that lets callers give workers exclusive network clones.
	var active [workers]atomic.Int32
	ForEachOpt(n, workers, Options{}, func(w, _ int) {
		if active[w].Add(1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		active[w].Add(-1)
	})
}

func TestForEachZeroItems(t *testing.T) {
	ran := false
	ForEachOpt(0, 4, Options{}, func(_, _ int) { ran = true })
	if ran {
		t.Fatal("fn ran for n=0")
	}
}

// TestForEachClampsWorkers pins the contract that worker IDs are always in
// [0, min(workers, n)): asking for more workers than items must not spawn
// idle goroutines or hand out IDs ≥ n.
func TestForEachClampsWorkers(t *testing.T) {
	const n = 3
	var maxWorker atomic.Int32
	maxWorker.Store(-1)
	ForEachOpt(n, 64, Options{}, func(w, _ int) {
		for {
			cur := maxWorker.Load()
			if int32(w) <= cur || maxWorker.CompareAndSwap(cur, int32(w)) {
				return
			}
		}
	})
	if got := maxWorker.Load(); got >= n {
		t.Errorf("worker id %d handed out with only %d items", got, n)
	}

	// The clamped count is what instrumentation reports, too.
	reg := obs.NewRegistry()
	ForEachOpt(n, 64, Options{Pool: "clamp", Obs: reg}, func(_, _ int) {})
	g, ok := reg.FullSnapshot().Get("parallel_pool_workers", obs.L("pool", "clamp"))
	if !ok || g.Value != n {
		t.Errorf("parallel_pool_workers = %+v, want %d", g, n)
	}
}

// TestForEachOptDeterministicSeries: the pool's deterministic counters must
// be byte-identical at every worker count, and the scheduling-dependent
// series must stay out of the deterministic snapshot.
func TestForEachOptDeterministicSeries(t *testing.T) {
	snapFor := func(workers int) []byte {
		reg := obs.NewRegistry()
		for round := 0; round < 2; round++ {
			ForEachOpt(23, workers, Options{Pool: "det", Obs: reg}, func(_, _ int) {})
		}
		raw, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return raw
	}
	serial := snapFor(1)
	for _, workers := range []int{3, 16} {
		if par := snapFor(workers); !bytes.Equal(serial, par) {
			t.Errorf("workers=%d deterministic pool series differ:\n%s\n%s", workers, serial, par)
		}
	}

	reg := obs.NewRegistry()
	ForEachOpt(5, 2, Options{Pool: "det", Obs: reg}, func(_, _ int) {})
	snap := reg.Snapshot()
	if m, ok := snap.Get("parallel_runs_total", obs.L("pool", "det")); !ok || m.Value != 1 {
		t.Errorf("parallel_runs_total = %+v, want 1", m)
	}
	if m, ok := snap.Get("parallel_items_total", obs.L("pool", "det")); !ok || m.Value != 5 {
		t.Errorf("parallel_items_total = %+v, want 5", m)
	}
	if _, ok := snap.Get("parallel_item_seconds", obs.L("pool", "det")); ok {
		t.Error("volatile timing series leaked into the deterministic snapshot")
	}
	full := reg.FullSnapshot()
	if m, ok := full.Get("parallel_item_seconds", obs.L("pool", "det")); !ok || m.Count != 5 {
		t.Errorf("parallel_item_seconds in runtime section = %+v, want count 5", m)
	}
}

func TestForEachSerialWhenOneWorker(t *testing.T) {
	order := make([]int, 0, 10)
	ForEachOpt(10, 1, Options{}, func(w, i int) {
		if w != 0 {
			t.Fatalf("worker id %d with one worker", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

// TestForEachOptWorkerItems: the per-worker item series, resolved once per
// worker, must still account for every item, and a worker's series exists
// only once it has claimed an item.
func TestForEachOptWorkerItems(t *testing.T) {
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		ForEachOpt(40, workers, Options{Pool: "items", Obs: reg}, func(_, _ int) {})
		var total int64
		for _, m := range reg.FullSnapshot().Runtime {
			if m.Name != "parallel_worker_items_total" {
				continue
			}
			if m.Value == 0 {
				t.Errorf("workers=%d: series %v registered with no items", workers, m.Labels)
			}
			total += m.Value
		}
		if total != 40 {
			t.Errorf("workers=%d: per-worker items sum to %d, want 40", workers, total)
		}
	}
}
