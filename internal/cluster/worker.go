package cluster

// Worker: the execution half of the cluster. A worker owns a local
// sharded result store (the same crash-safe store standalone censerved
// uses), pulls leases from the coordinator, executes them on its own
// clone-isolated scheduler world, persists the result locally — fsynced
// before anything is acknowledged — and pushes back a digest-bearing
// completion. Its HTTP surface serves the bytes back out: local result
// reads, repair pushes, and anti-entropy digest queries.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"cendev/internal/obs"
	"cendev/internal/serve"
	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// NodeID is this worker's cluster name (required; must match the
	// coordinator's peer table).
	NodeID string
	// CoordinatorURL is the coordinator's base URL (required for Start;
	// a worker that only serves its store may leave it empty).
	CoordinatorURL string
	// StoreDir is the local result-store directory (required).
	StoreDir string
	// Shards is the store segment count (default serve.DefaultShards).
	Shards int
	// FS is the filesystem the store persists through (nil = real one);
	// per-node chaos tests inject faults here.
	FS vfs.FS
	// Obs receives the worker's series.
	Obs *obs.Registry
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
	// RunHook, when non-nil, replaces the scheduler as the executor (test
	// seam, same contract as serve.Options.RunHook).
	RunHook func(serve.JobSpec) (json.RawMessage, error)
	// Client performs worker→coordinator HTTP.
	Client *http.Client
	// RetryWait is the pause after a failed coordinator round-trip before
	// the pull loop tries again. Liveness only (default 100ms).
	RetryWait time.Duration
}

// Worker is one execution node.
type Worker struct {
	opts  WorkerOptions
	store *serve.Store
	run   func(serve.JobSpec) (json.RawMessage, error)
	mux   *http.ServeMux

	pullCtx  context.Context
	pullStop context.CancelFunc
	loopDone chan struct{}
	started  atomic.Bool
}

// NewWorker opens the worker's local store and builds its HTTP surface.
// The pull loop starts separately (Start), so a node can serve its
// store without executing — which is also what a crashed worker looks
// like to the rest of the cluster.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.NodeID == "" {
		return nil, fmt.Errorf("cluster: worker needs a node ID")
	}
	if opts.Shards <= 0 {
		opts.Shards = serve.DefaultShards
	}
	if opts.FS == nil {
		opts.FS = vfs.OS()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.RetryWait <= 0 {
		opts.RetryWait = 100 * time.Millisecond
	}
	store, err := serve.OpenStoreFS(opts.FS, opts.StoreDir, opts.Shards)
	if err != nil {
		return nil, err
	}
	for _, warn := range store.Warnings() {
		opts.Logf("worker %s: store recovery: %s", opts.NodeID, warn)
	}
	w := &Worker{opts: opts, store: store, loopDone: make(chan struct{})}
	if opts.RunHook != nil {
		w.run = opts.RunHook
	} else {
		w.run = serve.NewScheduler(opts.Obs).Run
	}
	w.pullCtx, w.pullStop = context.WithCancel(context.Background())
	w.mux = http.NewServeMux()
	w.mux.HandleFunc("GET /v1/cluster/local/{id}", w.handleLocal)
	w.mux.HandleFunc("POST /v1/cluster/repair", w.handleRepair)
	w.mux.HandleFunc("GET /v1/cluster/digests", w.handleDigests)
	return w, nil
}

// Handler returns the worker's HTTP surface.
func (w *Worker) Handler() http.Handler { return w.mux }

// SetCoordinatorURL wires the coordinator address after construction —
// assembly is circular (the coordinator's peer table needs worker URLs,
// workers need the coordinator URL), so one side binds late. Must be
// called before Start.
func (w *Worker) SetCoordinatorURL(u string) { w.opts.CoordinatorURL = u }

// Store exposes the worker's local store (tests, drain verification).
func (w *Worker) Store() *serve.Store { return w.store }

// Start launches the pull loop. Idempotent.
func (w *Worker) Start() {
	if w.started.Swap(true) {
		return
	}
	go w.pullLoop()
}

// Drain stops pulling, waits for the in-flight lease (if any) to finish
// executing and push its completion, then compacts and closes the local
// store. A worker that never started drains immediately.
func (w *Worker) Drain() error {
	w.pullStop()
	if w.started.Load() {
		<-w.loopDone
	}
	if err := w.store.Compact(); err != nil {
		w.store.Close()
		return fmt.Errorf("cluster: worker %s drain compact: %w", w.opts.NodeID, err)
	}
	if err := w.store.Close(); err != nil {
		return fmt.Errorf("cluster: worker %s drain close: %w", w.opts.NodeID, err)
	}
	return nil
}

// pullLoop long-polls the coordinator for leases until told to stop
// (Drain) or the coordinator drains (410).
func (w *Worker) pullLoop() {
	defer close(w.loopDone)
	for {
		if w.pullCtx.Err() != nil {
			return
		}
		lease, status, err := w.pull()
		switch {
		case err != nil:
			if w.pullCtx.Err() != nil {
				return
			}
			w.opts.Logf("worker %s: pull: %v", w.opts.NodeID, err)
			//cenlint:volatile retry pause after a failed coordinator round-trip: liveness pacing only
			timer := time.NewTimer(w.opts.RetryWait)
			select {
			case <-timer.C:
			case <-w.pullCtx.Done():
				timer.Stop()
				return
			}
		case status == http.StatusGone:
			w.opts.Logf("worker %s: coordinator draining; stopping pulls", w.opts.NodeID)
			return
		case lease != nil:
			w.execute(lease)
		}
	}
}

// pull performs one GET /v1/cluster/pull round-trip. A nil lease with
// nil error means "nothing available" (204).
func (w *Worker) pull() (*wire.JobLease, int, error) {
	req, err := http.NewRequestWithContext(w.pullCtx, http.MethodGet,
		w.opts.CoordinatorURL+"/v1/cluster/pull?node="+w.opts.NodeID, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent, http.StatusGone:
		return nil, resp.StatusCode, nil
	default:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, fmt.Errorf("cluster: pull status %d: %s", resp.StatusCode, raw)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 2<<20))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	payload, ok := wire.NewReader(body).Next()
	if !ok {
		return nil, resp.StatusCode, fmt.Errorf("cluster: pull body is not a wire frame")
	}
	lease, err := wire.DecodeJobLease(payload)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return lease, resp.StatusCode, nil
}

// execute runs one lease: decode the spec, run it on the local
// executor, persist the result to the local store (durable before
// anything is acknowledged), then push the digest-bearing completion.
func (w *Worker) execute(lease *wire.JobLease) {
	comp := &wire.Completion{ID: lease.ID, Node: w.opts.NodeID, Attempt: lease.Attempt}
	payload, digest, err := w.runLease(lease)
	if err != nil {
		comp.Transient = serve.IsTransient(err)
		comp.Error = err.Error()
		w.opts.Obs.Counter("censerved_cluster_exec_failures_total", obs.L("node", w.opts.NodeID)).Inc()
		w.opts.Logf("worker %s: job %s attempt %d failed (transient=%v): %v",
			w.opts.NodeID, lease.ID, lease.Attempt, comp.Transient, err)
	} else {
		comp.Digest = digest
		w.opts.Obs.Counter("censerved_cluster_exec_total", obs.L("node", w.opts.NodeID)).Inc()
		w.opts.Logf("worker %s: job %s attempt %d done, digest %.12s…, %d bytes",
			w.opts.NodeID, lease.ID, lease.Attempt, digest, len(payload))
	}
	if err := w.complete(comp); err != nil {
		w.opts.Logf("worker %s: job %s: pushing completion: %v", w.opts.NodeID, lease.ID, err)
	}
}

// runLease executes the lease and persists the result locally. A store
// write failure is a transient error: the bytes are not durable here,
// so the coordinator must place the replica elsewhere (or here, later).
func (w *Worker) runLease(lease *wire.JobLease) (json.RawMessage, string, error) {
	var spec serve.JobSpec
	if err := json.Unmarshal(lease.Spec, &spec); err != nil {
		return nil, "", fmt.Errorf("cluster: decoding lease spec: %w", err)
	}
	payload, err := w.runGuarded(spec)
	if err != nil {
		return nil, "", err
	}
	digest := serve.PayloadDigest(payload)
	if err := w.store.PutResult(lease.ID, spec, payload, digest); err != nil {
		return nil, "", serve.Transient(fmt.Errorf("cluster: persisting result locally: %w", err))
	}
	return payload, digest, nil
}

// runGuarded runs the executor behind a panic barrier.
func (w *Worker) runGuarded(spec serve.JobSpec) (payload json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			payload, err = nil, fmt.Errorf("cluster: job panicked: %v", r)
		}
	}()
	return w.run(spec)
}

// complete pushes one completion to the coordinator. Uses its own
// context: a drain must not cancel the acknowledgement of work that
// already happened.
func (w *Worker) complete(comp *wire.Completion) error {
	body := wire.AppendFrame(nil, wire.AppendCompletion(nil, comp))
	resp, err := w.opts.Client.Post(w.opts.CoordinatorURL+"/v1/cluster/complete",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: complete status %d: %s", resp.StatusCode, raw)
	}
	return nil
}

// handleLocal serves the raw local payload bytes of one result.
func (w *Worker) handleLocal(rw http.ResponseWriter, r *http.Request) {
	e, ok := w.store.Get(r.PathValue("id"))
	if !ok || e.State != serve.StateDone || e.Payload == nil {
		http.Error(rw, "no local result", http.StatusNotFound)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	_, _ = rw.Write(e.Payload)
}

// handleRepair installs a pushed replica: a JobLease frame (for the
// spec) followed by a Completion frame (payload + digest). The digest
// is re-verified before anything is persisted — a repair push is not
// more trusted than a worker.
func (w *Worker) handleRepair(rw http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, 64<<20))
	if err != nil {
		http.Error(rw, "reading repair: "+err.Error(), http.StatusBadRequest)
		return
	}
	rd := wire.NewReader(body)
	leaseRaw, ok := rd.Next()
	if !ok {
		http.Error(rw, "repair body missing lease frame", http.StatusBadRequest)
		return
	}
	compRaw, ok := rd.Next()
	if !ok {
		http.Error(rw, "repair body missing completion frame", http.StatusBadRequest)
		return
	}
	lease, err := wire.DecodeJobLease(leaseRaw)
	if err != nil {
		http.Error(rw, "decoding repair lease: "+err.Error(), http.StatusBadRequest)
		return
	}
	comp, err := wire.DecodeCompletion(compRaw)
	if err != nil {
		http.Error(rw, "decoding repair completion: "+err.Error(), http.StatusBadRequest)
		return
	}
	if comp.ID != lease.ID {
		http.Error(rw, "repair lease/completion job IDs disagree", http.StatusBadRequest)
		return
	}
	if serve.PayloadDigest(comp.Payload) != comp.Digest {
		http.Error(rw, "repair payload does not hash to its digest", http.StatusBadRequest)
		return
	}
	var spec serve.JobSpec
	if err := json.Unmarshal(lease.Spec, &spec); err != nil {
		http.Error(rw, "decoding repair spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := w.store.PutResult(comp.ID, spec, comp.Payload, comp.Digest); err != nil {
		http.Error(rw, "persisting repair: "+err.Error(), serve.StoreErrorStatus(err))
		return
	}
	w.opts.Obs.Counter("censerved_cluster_repairs_received_total", obs.L("node", w.opts.NodeID)).Inc()
	w.opts.Logf("worker %s: repaired result %s installed", w.opts.NodeID, comp.ID)
	rw.WriteHeader(http.StatusNoContent)
}

// handleDigests answers anti-entropy queries over the local store:
// without detail, one DigestRange frame summarizing every done result
// whose key hash falls in [start, end]; with detail=1, one Completion
// frame (ID + digest, no payload) per such result, in ID order.
func (w *Worker) handleDigests(rw http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	start, err := parseUint(q.Get("start"))
	if err != nil {
		http.Error(rw, "bad start: "+err.Error(), http.StatusBadRequest)
		return
	}
	end, err := parseUint(q.Get("end"))
	if err != nil {
		http.Error(rw, "bad end: "+err.Error(), http.StatusBadRequest)
		return
	}
	pairs := make(map[string]string)
	for _, e := range w.store.List(serve.StateDone) {
		if e.Digest == "" {
			continue
		}
		if h := hashKey(e.ID); h < start || h > end {
			continue
		}
		pairs[e.ID] = e.Digest
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	if q.Get("detail") == "" {
		count, digest := setDigest(pairs)
		dr := &wire.DigestRange{Start: start, End: end, Count: count, Digest: digest}
		_, _ = rw.Write(wire.AppendFrame(nil, wire.AppendDigestRange(nil, dr)))
		return
	}
	ids := make([]string, 0, len(pairs))
	for id := range pairs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var body []byte
	for _, id := range ids {
		comp := &wire.Completion{ID: id, Node: w.opts.NodeID, Digest: pairs[id]}
		body = wire.AppendFrame(body, wire.AppendCompletion(nil, comp))
	}
	_, _ = rw.Write(body)
}

func parseUint(s string) (uint64, error) {
	var v uint64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, err
	}
	return v, nil
}
