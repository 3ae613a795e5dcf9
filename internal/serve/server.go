package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cendev/internal/obs"
	"cendev/internal/vfs"
)

// Options configures a Server.
type Options struct {
	// StoreDir is the result-store directory (required).
	StoreDir string
	// QueueCapacity bounds queued jobs; beyond it submissions get 429
	// (default 64).
	QueueCapacity int
	// Workers is the number of concurrent scheduler workers (default 2).
	Workers int
	// AdmitBurst and AdmitRate shape each tenant's token bucket
	// (default 8 tokens, 1 token/s).
	AdmitBurst int
	AdmitRate  float64
	// Now is the admission clock (nil means time.Now); injectable so
	// tests drive refill deterministically.
	Now func() time.Time
	// Obs, when non-nil, receives the service's own series plus the
	// aggregated measurement series of every job.
	Obs *obs.Registry
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// FS is the filesystem the store persists through (nil means the real
	// one); the crash matrix and degradation tests inject faults here.
	FS vfs.FS
	// JobTimeout is the per-job watchdog: a job still running after this
	// wall time is abandoned with a transient timeout error (default
	// 10m). The timeout only decides liveness, never result bytes.
	JobTimeout time.Duration
	// RetryBudget is how many retries a transiently failing job gets
	// after its first attempt (default 2; negative means none). Budget
	// exhausted, the job goes to the dead-letter state.
	RetryBudget int
	// DegradeAfter is the consecutive store-write-failure count that trips
	// the server into degraded read-only mode (default 3; negative
	// disables degradation).
	DegradeAfter int
	// RunHook, when non-nil, replaces the scheduler as the job executor —
	// a test seam that skips building the (expensive) measurement world
	// and lets tests script failures.
	RunHook func(JobSpec) (json.RawMessage, error)
	// Backend, when non-nil, replaces the local executor entirely — the
	// cluster coordinator leases executions to workers through this seam.
	// Takes precedence over RunHook.
	Backend Backend
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.AdmitBurst <= 0 {
		o.AdmitBurst = 8
	}
	if o.AdmitRate <= 0 {
		o.AdmitRate = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 2
	}
	if o.RetryBudget < 0 {
		o.RetryBudget = 0
	}
	if o.DegradeAfter == 0 {
		o.DegradeAfter = 3
	}
	return o
}

// Server is the orchestration service: admission gate, priority queue,
// scheduler workers, and result store behind an HTTP JSON API.
type Server struct {
	opts    Options
	store   *Store
	queue   *Queue
	admit   *Admission
	sched   *Scheduler
	backend Backend
	mux     *http.ServeMux

	draining atomic.Bool
	workers  sync.WaitGroup

	// cache dedupes identical submissions: canonical spec (which includes
	// the seed) → finished result. Sound because payloads are pure
	// functions of (spec, seed) — a hit returns the same bytes execution
	// would have produced, without spending a world build on them.
	cacheMu sync.Mutex
	cache   map[string]cacheEntry

	// degraded trips when the store persistently fails writes (see
	// noteStoreWrite): the server stops accepting and running jobs but
	// keeps serving reads — degraded beats dead for a fleet service.
	degraded      atomic.Bool
	storeFailures atomic.Int64 // consecutive store-write failures

	mRunning  *obs.Gauge
	mDegraded *obs.Gauge
}

// New opens the store, recovers persisted jobs, builds the scheduler
// world, and starts the worker pool. Jobs found queued or running from a
// previous process are re-enqueued in their original admission order —
// re-running an interrupted job is safe because payloads are pure
// functions of the spec.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	store, err := OpenStoreFS(opts.FS, opts.StoreDir, DefaultShards)
	if err != nil {
		return nil, err
	}
	for _, w := range store.Warnings() {
		opts.Logf("store recovery: %s", w)
	}

	s := &Server{
		opts:      opts,
		store:     store,
		admit:     NewAdmission(opts.AdmitBurst, opts.AdmitRate, opts.Now),
		mRunning:  opts.Obs.Gauge("censerved_jobs_running"),
		mDegraded: opts.Obs.Gauge("censerved_degraded"),
	}
	s.queue = NewQueue(opts.QueueCapacity, opts.Obs.Gauge("censerved_queue_depth"))
	switch {
	case opts.Backend != nil:
		s.backend = opts.Backend
	case opts.RunHook != nil:
		s.backend = localBackend{run: opts.RunHook}
	default:
		s.sched = NewScheduler(opts.Obs)
		s.backend = localBackend{run: s.sched.Run}
	}
	if bb, ok := s.backend.(BoundBackend); ok {
		bb.Bind(s)
	}

	// Warm the cache from recovered results so dedup survives restarts.
	// Entries without a digest predate the cache and are skipped — the
	// digest is what a hit hands to replica verification.
	s.cache = make(map[string]cacheEntry)
	for _, e := range store.List(StateDone) {
		if e.Digest == "" {
			continue
		}
		s.cache[e.Spec.CanonKey()] = cacheEntry{
			payload: e.Payload, digest: e.Digest, replicas: e.Replicas,
		}
	}

	// Recovery: pending entries in admission order. A job caught mid-run
	// by a crash is still recorded as running; flip it back to queued so
	// status reporting matches reality, then requeue. Recovery bypasses
	// the capacity check — these jobs were admitted before.
	for _, e := range store.Pending() {
		if e.State == StateRunning {
			if err := store.UpdateState(e.ID, StateQueued, e.Attempts, "", nil); err != nil {
				store.Close()
				return nil, fmt.Errorf("serve: recovering %s: %w", e.ID, err)
			}
			opts.Logf("recovered interrupted job %s (attempt %d); requeued", e.ID, e.Attempts)
		} else {
			opts.Logf("recovered queued job %s", e.ID)
		}
		s.queue.Push(e.ID, e.Spec.Priority, e.Seq)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", obs.Handler(opts.Obs))

	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker(i)
	}
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// countSubmitted, countRejected, countDone, countFailed bump the
// service's labeled series; label values bind at lookup, so series are
// resolved on demand (the registry dedups by name+labels).
func (s *Server) countSubmitted(tenant string) {
	s.opts.Obs.Counter("censerved_jobs_submitted_total", obs.L("tenant", tenant)).Inc()
}

func (s *Server) countRejected(reason string) {
	s.opts.Obs.Counter("censerved_jobs_rejected_total", obs.L("reason", reason)).Inc()
}

func (s *Server) countDone(kind string) {
	s.opts.Obs.Counter("censerved_jobs_done_total", obs.L("kind", kind)).Inc()
}

func (s *Server) countFailed(kind string) {
	s.opts.Obs.Counter("censerved_jobs_failed_total", obs.L("kind", kind)).Inc()
}

func (s *Server) countRetried(kind string) {
	s.opts.Obs.Counter("censerved_jobs_retried_total", obs.L("kind", kind)).Inc()
}

func (s *Server) countDead(kind string) {
	s.opts.Obs.Counter("censerved_jobs_dead_total", obs.L("kind", kind)).Inc()
}

func (s *Server) countConflict(kind string) {
	s.opts.Obs.Counter("censerved_jobs_conflict_total", obs.L("kind", kind)).Inc()
}

// cacheEntry is one finished result keyed by its canonical spec.
type cacheEntry struct {
	payload  json.RawMessage
	digest   string
	replicas []string
}

// cacheGet looks up a finished result for an identical spec+seed.
func (s *Server) cacheGet(spec JobSpec) (cacheEntry, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	ce, ok := s.cache[spec.CanonKey()]
	return ce, ok
}

// cachePut records a finished execution for future dedup.
func (s *Server) cachePut(spec JobSpec, res ExecResult) {
	payload := res.Payload
	if res.Remote {
		payload = nil
	}
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cache[spec.CanonKey()] = cacheEntry{
		payload: payload, digest: res.Digest, replicas: res.Replicas,
	}
}

// noteStoreWrite feeds the degradation trigger: consecutive store-write
// failures trip degraded read-only mode; any success resets the streak.
func (s *Server) noteStoreWrite(err error) {
	if err == nil {
		s.storeFailures.Store(0)
		return
	}
	if errors.Is(err, ErrStoreClosed) {
		return // closed by the drain, not failing
	}
	s.opts.Obs.Counter("censerved_store_write_failures_total").Inc()
	n := s.storeFailures.Add(1)
	if s.opts.DegradeAfter > 0 && n >= int64(s.opts.DegradeAfter) {
		s.enterDegraded()
	}
}

// enterDegraded flips the server into degraded read-only mode: new
// submissions get 503, /healthz reports degraded, workers stop picking
// up jobs (the queue closes; queued jobs are already durable and recover
// on the next start), and reads keep working. There is deliberately no
// automatic way back — a store that failed writes repeatedly needs an
// operator, and flapping would be worse than staying read-only.
func (s *Server) enterDegraded() {
	if s.degraded.Swap(true) {
		return
	}
	s.mDegraded.Set(1)
	s.opts.Logf("entering DEGRADED read-only mode: %d consecutive store write failures", s.storeFailures.Load())
	s.queue.Close()
}

// Degraded reports whether the server is in degraded read-only mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Store exposes the underlying store (read-side, for tests and drain
// verification).
func (s *Server) Store() *Store { return s.store }

// worker pops jobs until the queue closes.
func (s *Server) worker(id int) {
	defer s.workers.Done()
	for {
		jobID, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(id, jobID)
	}
}

func (s *Server) runJob(workerID int, jobID string) {
	e, ok := s.store.Get(jobID)
	if !ok {
		s.opts.Logf("worker %d: job %s vanished from store", workerID, jobID)
		return
	}
	attempts := e.Attempts + 1
	if err := s.store.UpdateState(jobID, StateRunning, attempts, "", nil); err != nil {
		s.noteStoreWrite(err)
		s.opts.Logf("worker %d: job %s: mark running: %v", workerID, jobID, err)
		return
	}
	s.noteStoreWrite(nil)
	s.mRunning.Add(1)
	defer s.mRunning.Add(-1)

	res, err := s.execute(Job{ID: jobID, Spec: e.Spec, Attempts: attempts})

	if err != nil {
		s.finishFailed(workerID, jobID, &e, attempts, err)
		return
	}
	s.countDone(e.Spec.Kind)
	payload := res.Payload
	if res.Remote {
		payload = nil // the replica set owns the bytes; keep only the digest
	}
	// Cache before the job reads done, so a client that resubmits the spec
	// on seeing done hits the cache. Caching a result whose store write
	// then fails is harmless: a hit stores the payload under its own job,
	// and the payload is a pure function of the spec.
	s.cachePut(e.Spec, res)
	uerr := s.store.UpdateDone(jobID, attempts, payload, res.Digest, res.Replicas)
	s.noteStoreWrite(uerr)
	if uerr != nil {
		s.opts.Logf("worker %d: job %s: mark done: %v", workerID, jobID, uerr)
		return
	}
	s.opts.Logf("worker %d: job %s (%s) done, digest %.12s…, %d payload bytes",
		workerID, jobID, e.Spec.Kind, res.Digest, len(res.Payload))
}

// execute runs one job through the backend under the watchdog, with a
// panic barrier. A job that outlives the watchdog is abandoned (its
// goroutine keeps running; a buffered channel swallows the late result)
// and reported as a transient timeout — re-runnable, because payloads
// are pure functions of the spec.
func (s *Server) execute(j Job) (ExecResult, error) {
	type result struct {
		res ExecResult
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- result{err: fmt.Errorf("serve: job panicked: %v", r)}
			}
		}()
		res, err := s.backend.Execute(j)
		ch <- result{res: res, err: err}
	}()
	//cenlint:volatile watchdog liveness timeout: wall time decides only whether a hung job is abandoned, never any result bytes
	timer := time.NewTimer(s.opts.JobTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-timer.C:
		return ExecResult{}, Transient(fmt.Errorf("serve: job exceeded %s watchdog timeout", s.opts.JobTimeout))
	}
}

// finishFailed routes a failed attempt: transient failures with budget
// left requeue with seeded backoff; transient failures out of budget go
// to the dead-letter state; permanent failures fail immediately.
func (s *Server) finishFailed(workerID int, jobID string, e *JobEntry, attempts int, err error) {
	if IsTransient(err) && !IsConflict(err) && attempts <= s.opts.RetryBudget {
		s.countRetried(e.Spec.Kind)
		uerr := s.store.UpdateState(jobID, StateQueued, attempts, err.Error(), nil)
		s.noteStoreWrite(uerr)
		if uerr != nil {
			s.opts.Logf("worker %d: job %s: mark requeued: %v", workerID, jobID, uerr)
			return
		}
		delay := retryDelay(e.Spec.Seed, jobID, attempts)
		s.queue.PushDelayed(jobID, e.Spec.Priority, e.Seq, delay)
		s.opts.Logf("worker %d: job %s (%s) attempt %d failed transiently, retrying after %d pops: %v",
			workerID, jobID, e.Spec.Kind, attempts, delay, err)
		return
	}
	state := StateFailed
	switch {
	case IsConflict(err):
		state = StateConflict
		s.countConflict(e.Spec.Kind)
	case IsTransient(err):
		state = StateDead
		s.countDead(e.Spec.Kind)
	default:
		s.countFailed(e.Spec.Kind)
	}
	uerr := s.store.UpdateState(jobID, state, attempts, err.Error(), nil)
	s.noteStoreWrite(uerr)
	if uerr != nil {
		s.opts.Logf("worker %d: job %s: mark %s: %v", workerID, jobID, state, uerr)
	}
	s.opts.Logf("worker %d: job %s (%s) %s after %d attempts: %v",
		workerID, jobID, e.Spec.Kind, state, attempts, err)
}

// Drain performs the graceful shutdown sequence: stop admitting (new
// submissions get 503), close the queue (queued jobs stay persisted for
// the next start), wait for in-flight jobs to finish, compact, and close
// the store. Idempotent.
func (s *Server) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	s.opts.Logf("draining: admission stopped, waiting for in-flight jobs")
	s.queue.Close()
	s.workers.Wait()
	if bd, ok := s.backend.(BackendDrainer); ok {
		if err := bd.DrainBackend(); err != nil {
			s.opts.Logf("drain: backend: %v", err)
		}
	}
	if err := s.store.Compact(); err != nil {
		s.store.Close()
		return fmt.Errorf("serve: drain compact: %w", err)
	}
	if err := s.store.Close(); err != nil {
		return fmt.Errorf("serve: drain close: %w", err)
	}
	s.opts.Logf("drain complete: %d jobs persisted", s.store.Len())
	return nil
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// StoreErrorStatus is the HTTP status for a failed store write: 503 when
// a drain closed the store under the request (ErrStoreClosed), 500
// otherwise.
func StoreErrorStatus(err error) int {
	if errors.Is(err, ErrStoreClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.degraded.Load() {
		writeError(w, http.StatusServiceUnavailable, "degraded (read-only): store writes failing")
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	var spec JobSpec
	if err == nil {
		spec, err = DecodeSpec(raw)
	}
	if err != nil {
		s.countRejected("invalid")
		writeError(w, http.StatusBadRequest, "decoding job spec: "+err.Error())
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		s.countRejected("invalid")
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if ok, retry := s.admit.Allow(spec.Tenant); !ok {
		s.countRejected("admission")
		sec := int(retry / time.Second)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:         "tenant rate limit exceeded",
			RetryAfterSec: sec,
		})
		return
	}

	// Result-cache dedup: an identical spec+seed already finished, and
	// payloads are pure functions of (spec, seed), so execution would
	// reproduce the cached bytes. Admit the job straight to done — no
	// queue slot, no world build. Admission control still applies above:
	// the cache saves compute, not the tenant's request budget.
	if ce, ok := s.cacheGet(spec); ok {
		entry, err := s.store.AppendQueued(spec)
		s.noteStoreWrite(err)
		if err != nil {
			writeError(w, StoreErrorStatus(err), "persisting job: "+err.Error())
			return
		}
		uerr := s.store.UpdateDone(entry.ID, 0, ce.payload, ce.digest, ce.replicas)
		s.noteStoreWrite(uerr)
		if uerr != nil {
			writeError(w, StoreErrorStatus(uerr), "persisting cached result: "+uerr.Error())
			return
		}
		s.countSubmitted(spec.Tenant)
		s.opts.Obs.Counter("censerved_cache_hits").Inc()
		s.opts.Logf("job %s (%s) served from result cache, digest %.12s…", entry.ID, spec.Kind, ce.digest)
		writeJSON(w, http.StatusAccepted, submitResponse{ID: entry.ID, State: StateDone})
		return
	}

	if err := s.queue.Reserve(); err != nil {
		if errors.Is(err, ErrQueueClosed) {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.countRejected("queue_full")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:         "queue full",
			RetryAfterSec: 1,
		})
		return
	}

	entry, err := s.store.AppendQueued(spec)
	s.noteStoreWrite(err)
	if err != nil {
		s.queue.Release()
		writeError(w, StoreErrorStatus(err), "persisting job: "+err.Error())
		return
	}
	s.queue.Push(entry.ID, spec.Priority, entry.Seq)
	s.countSubmitted(spec.Tenant)
	writeJSON(w, http.StatusAccepted, submitResponse{ID: entry.ID, State: StateQueued})
}

// handleJobs lists jobs in admission order, optionally filtered by
// ?state= — the dead-letter query GET /v1/jobs?state=dead in particular.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	state := JobState(r.URL.Query().Get("state"))
	if !validListState(state) {
		valid := make([]string, len(listStates))
		for i, v := range listStates {
			valid[i] = string(v)
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown state %q (valid: %s)",
			state, strings.Join(valid, ", ")))
		return
	}
	entries := s.store.List(state)
	resp := jobsResponse{Jobs: make([]JobStatus, 0, len(entries))}
	for i := range entries {
		resp.Jobs = append(resp.Jobs, entries[i].Status())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, e.Status())
}

// handleResult serves the raw payload bytes — deliberately not
// re-encoded, so byte-identity across submissions is observable at the
// API boundary.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch e.State {
	case StateDone:
		payload := e.Payload
		if payload == nil {
			// The bytes live on remote replicas; the backend fetches (and
			// read-repairs) them.
			rf, ok := s.backend.(ResultFetcher)
			if !ok {
				writeError(w, http.StatusInternalServerError, "result payload missing from store")
				return
			}
			p, err := rf.FetchResult(e.ID)
			if err != nil {
				writeError(w, http.StatusBadGateway, "fetching result from replicas: "+err.Error())
				return
			}
			payload = p
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(payload)
	case StateFailed, StateDead, StateConflict:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: e.Error})
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; retry later", e.State))
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.degraded.Load() {
		writeError(w, http.StatusServiceUnavailable, "degraded (read-only): store writes failing")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
