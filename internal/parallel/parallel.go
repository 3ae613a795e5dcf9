// Package parallel is the minimal worker-pool primitive under the
// measurement tools' parallel fan-out. Work items are distributed to a
// fixed set of workers via an atomic counter, so each worker can own
// per-worker state (a private network clone) while items are claimed
// dynamically — the fast workers absorb the slow items, and the caller
// indexes results by item, keeping output deterministic regardless of
// worker count or scheduling.
package parallel

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cendev/internal/obs"
)

// Options instruments a fan-out. The zero value disables instrumentation.
type Options struct {
	// Pool labels the fan-out's metric series (e.g. "centrace.campaign").
	Pool string
	// Obs receives pool metrics. Deterministic series: parallel_runs_total
	// and parallel_items_total per pool (identical at every worker count).
	// Volatile series (scheduling- and wall-clock-dependent, reported in
	// the runtime section only): the effective worker count, per-worker
	// item counts and busy time, and the queue wait between pool start and
	// each item's claim. Nil disables all of them.
	Obs *obs.Registry
}

// ForEachOpt runs fn(worker, index) for every index in [0, n), using at
// most `workers` concurrent goroutines, and records pool metrics to opt.
//
// The worker/index contract:
//
//   - workers is clamped to [1, n]: no idle goroutines are ever spawned
//     for small batches, and worker IDs passed to fn are always in
//     [0, min(workers, n)).
//   - The worker argument is stable per goroutine and exclusive: one
//     worker never runs two calls concurrently, so callers can give each
//     worker a private resource (a network clone) without locking.
//   - Indexes are claimed dynamically in ascending order; with one worker
//     the calls are strictly sequential (0, 1, …, n-1) on the caller's
//     goroutine.
//   - ForEachOpt returns when every call has finished. Panics inside fn
//     propagate to the caller's goroutine only if fn does not recover;
//     callers that need a panic barrier install their own recover inside
//     fn.
func ForEachOpt(n, workers int, opt Options, fn func(worker, index int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var ins *poolInstruments
	if opt.Obs != nil {
		ins = newPoolInstruments(opt, n, workers)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			ins.run(0, i, fn)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				ins.run(worker, i, fn)
			}
		}(w)
	}
	wg.Wait()
}

// poolInstruments carries the pre-resolved metric handles for one
// instrumented fan-out. A nil *poolInstruments is a no-op.
type poolInstruments struct {
	start    time.Time
	wait     *obs.Histogram // wall seconds from pool start to item claim
	itemSecs *obs.Histogram // wall seconds spent inside fn
	reg      *obs.Registry
	pool     obs.Label
	// workItems holds each worker's parallel_worker_items_total series,
	// resolved by that worker on its first item (so a worker that claims
	// none registers no series). Element w belongs to worker w alone.
	workItems []*obs.Counter
}

func newPoolInstruments(opt Options, n, workers int) *poolInstruments {
	pool := obs.L("pool", opt.Pool)
	opt.Obs.Counter("parallel_runs_total", pool).Inc()
	opt.Obs.Counter("parallel_items_total", pool).Add(int64(n))
	opt.Obs.VolatileGauge("parallel_pool_workers", pool).Set(int64(workers))
	reg := opt.Obs
	return &poolInstruments{
		start:    time.Now(), //cenlint:volatile pool wait/busy gauges are wall-clock by design; they feed VolatileHistogram series only, never canonical snapshots
		wait:     reg.VolatileHistogram("parallel_item_wait_seconds", obs.TimeBuckets, pool),
		itemSecs: reg.VolatileHistogram("parallel_item_seconds", obs.TimeBuckets, pool),

		reg:       reg,
		pool:      pool,
		workItems: make([]*obs.Counter, workers),
	}
}

// run invokes fn for one item, recording claim wait and busy time when
// instrumented.
func (p *poolInstruments) run(worker, index int, fn func(worker, index int)) {
	if p == nil {
		fn(worker, index)
		return
	}
	claimed := time.Now() //cenlint:volatile per-item latency is wall-clock by design; recorded in volatile runtime series only
	p.wait.Observe(claimed.Sub(p.start).Seconds())
	fn(worker, index)
	p.itemSecs.Observe(time.Since(claimed).Seconds()) //cenlint:volatile same wall-clock latency series as above
	items := p.workItems[worker]
	if items == nil {
		items = p.reg.VolatileCounter("parallel_worker_items_total", p.pool, obs.L("worker", strconv.Itoa(worker)))
		p.workItems[worker] = items
	}
	items.Inc()
}
