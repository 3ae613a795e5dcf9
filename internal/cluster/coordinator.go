package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cendev/internal/obs"
	"cendev/internal/serve"
	"cendev/internal/wire"
)

// transientPerReplica bounds the transient worker failures a job absorbs
// (transientPerReplica×R) before the coordinator reports the job itself
// as transiently failed; serve's retry budget takes over from there.
const transientPerReplica = 2

// antiEntropySeed orders the anti-entropy sweep.
const antiEntropySeed = 1

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Peers maps worker node IDs to their base URLs (required, ≥1).
	Peers map[string]string
	// Replication is the replica count R per job (default 2, clamped to
	// the peer count).
	Replication int
	// StealAfter is the work-stealing deadline, in coordinator events
	// (pull/completion arrivals): a replica slot idle that long becomes
	// stealable by any eligible node (default 16). Virtual time, so the
	// same protocol history always steals at the same points.
	StealAfter int64
	// PollWait bounds how long a worker pull parks when no work is
	// available. Liveness only — it decides when a worker polls again,
	// never any placement or result (default 200ms).
	PollWait time.Duration
	// Obs receives the cluster series.
	Obs *obs.Registry
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
	// Client performs coordinator→worker HTTP (fetch, repair, digests).
	Client *http.Client
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.Replication > len(o.Peers) {
		o.Replication = len(o.Peers)
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 16
	}
	if o.PollWait <= 0 {
		o.PollWait = 200 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// Coordinator is the cluster brain: a serve.Backend whose Execute
// places each admitted job on R ring-owner workers, hands leases to
// pulling workers, verifies completion digests against each other, and
// steals expired slots. It stores digests and replica sets, never
// payloads — the workers' stores own the bytes.
type Coordinator struct {
	opts CoordinatorOptions
	ring *Ring
	srv  *serve.Server

	mu sync.Mutex
	// events is the coordinator's virtual clock: one tick per protocol
	// arrival (pull or completion). Every deadline in the lease state
	// machine is measured in these ticks, so a replayed protocol history
	// makes identical steal/collapse decisions regardless of wall time.
	events   int64
	notify   chan struct{}
	draining bool
	jobs     map[string]*clusterJob
}

// clusterJob is one in-flight job's replica state machine.
type clusterJob struct {
	id          string
	specJSON    []byte
	slots       []*slot
	completions map[string]string // node → result digest (successes only)
	transient   int               // transient worker failures absorbed so far
	lastErr     string
	finished    bool
	res         serve.ExecResult
	err         error
	done        chan struct{}
}

// slot is one replica execution obligation. It starts assigned to a
// ring owner; if unserved past the steal deadline it can be granted to
// any eligible node, and if no eligible node exists but some node
// already completed the job, it collapses onto that completion — the
// rule that keeps min(R, live) progress when nodes die.
type slot struct {
	node string // current assignee (ring owner, or thief after a steal)
	// availableSince is the event time the slot last became grantable;
	// the steal deadline counts from here.
	availableSince int64
	leased         bool
	leasedAt       int64
	attempt        int64
	covered        bool
	coveredBy      string
}

// NewCoordinator builds a Coordinator over a static peer set.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Peers) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one peer")
	}
	nodes := make([]string, 0, len(opts.Peers))
	for n := range opts.Peers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return &Coordinator{
		opts:   opts,
		ring:   NewRing(nodes),
		notify: make(chan struct{}),
		jobs:   make(map[string]*clusterJob),
	}, nil
}

// Bind gives the coordinator its server (store access for read-repair
// and anti-entropy). Called once by serve.New.
func (c *Coordinator) Bind(s *serve.Server) { c.srv = s }

// Routes returns the coordinator's protocol surface, mounted by the
// node assembly next to the serve API.
func (c *Coordinator) Routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/pull", c.handlePull)
	mux.HandleFunc("POST /v1/cluster/complete", c.handleComplete)
	return mux
}

// broadcastLocked wakes every parked long-poll. Callers hold c.mu.
func (c *Coordinator) broadcastLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// tickLocked advances the virtual clock one event, expires overdue
// leases, and re-evaluates collapse for every job — so a job whose only
// missing slot belongs to a dead node makes progress on any protocol
// arrival, not just completions. Callers hold c.mu.
func (c *Coordinator) tickLocked() {
	c.events++
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cj, live := c.jobs[id]
		if !live {
			continue
		}
		for _, sl := range cj.slots {
			if !sl.covered && sl.leased && c.events-sl.leasedAt > c.opts.StealAfter {
				// An expired lease was already granted a full deadline ago;
				// backdating availableSince makes the slot stealable now.
				sl.leased = false
				sl.availableSince = sl.leasedAt
				c.opts.Logf("cluster: job %s: lease on %s expired (event %d)", cj.id, sl.node, c.events)
			}
		}
		c.checkFinishLocked(cj)
	}
}

// eligibleLocked reports whether node may take a slot of cj: one
// replica slot per node per job, and a node that already completed the
// job contributes nothing by running it again.
func (c *Coordinator) eligibleLocked(cj *clusterJob, node string) bool {
	if _, done := cj.completions[node]; done {
		return false
	}
	for _, sl := range cj.slots {
		if !sl.covered && sl.node == node {
			return false
		}
	}
	return true
}

// nextEligibleLocked walks the member list starting after `after`
// (wrapping) and returns the first node eligible to take a slot of cj,
// or "" if none. Callers hold c.mu.
func (c *Coordinator) nextEligibleLocked(cj *clusterJob, after string) string {
	nodes := c.ring.Nodes()
	start := 0
	for i, n := range nodes {
		if n == after {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(nodes); i++ {
		n := nodes[(start+i)%len(nodes)]
		if n != after && c.eligibleLocked(cj, n) {
			return n
		}
	}
	return ""
}

// grantLocked finds a slot for a pulling node: first a slot assigned to
// it, then any expired slot it is eligible to steal. Jobs are scanned
// in admission (ID) order so grant decisions are a pure function of
// protocol state.
func (c *Coordinator) grantLocked(node string) *wire.JobLease {
	ids := make([]string, 0, len(c.jobs))
	for id := range c.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Pass 1: slots already assigned to this node.
	for _, id := range ids {
		cj := c.jobs[id]
		for _, sl := range cj.slots {
			if !sl.covered && !sl.leased && sl.node == node {
				return c.leaseLocked(cj, sl, node, node)
			}
		}
	}
	// Pass 2: expired slots this node can steal.
	for _, id := range ids {
		cj := c.jobs[id]
		if !c.eligibleLocked(cj, node) {
			continue
		}
		for _, sl := range cj.slots {
			if !sl.covered && !sl.leased && c.events-sl.availableSince > c.opts.StealAfter {
				owner := sl.node
				sl.node = node
				c.opts.Obs.Counter("censerved_cluster_steals_total").Inc()
				c.opts.Logf("cluster: job %s: slot of %s stolen by %s (event %d)", cj.id, owner, node, c.events)
				return c.leaseLocked(cj, sl, node, owner)
			}
		}
	}
	return nil
}

func (c *Coordinator) leaseLocked(cj *clusterJob, sl *slot, node, owner string) *wire.JobLease {
	sl.leased = true
	sl.leasedAt = c.events
	sl.attempt++
	c.opts.Obs.Counter("censerved_cluster_leases_total", obs.L("node", node)).Inc()
	return &wire.JobLease{
		ID: cj.id, Node: node, Owner: owner, Attempt: sl.attempt,
		Spec: cj.specJSON,
	}
}

// collapseLocked covers expired slots that no node can serve with an
// existing completion. Without this rule a cluster with fewer live
// nodes than R deadlocks; with it, every job settles for
// min(R, live-and-willing) distinct copies and finishes.
func (c *Coordinator) collapseLocked(cj *clusterJob) {
	if len(cj.completions) == 0 {
		return
	}
	var coverer string
	for n := range cj.completions {
		if coverer == "" || n < coverer {
			coverer = n
		}
	}
	for _, sl := range cj.slots {
		if sl.covered || sl.leased {
			continue
		}
		if c.events-sl.availableSince <= c.opts.StealAfter {
			continue
		}
		candidates := false
		for _, n := range c.ring.Nodes() {
			if c.eligibleLocked(cj, n) {
				candidates = true
				break
			}
		}
		if candidates {
			continue
		}
		sl.covered = true
		sl.coveredBy = coverer
		c.opts.Obs.Counter("censerved_cluster_collapses_total").Inc()
		c.opts.Logf("cluster: job %s: slot of %s collapsed onto %s's completion", cj.id, sl.node, coverer)
	}
}

// checkFinishLocked finishes the job once every slot is covered:
// digests must all agree (conflict otherwise), and the replica set is
// every node holding a durable verified copy.
func (c *Coordinator) checkFinishLocked(cj *clusterJob) {
	c.collapseLocked(cj)
	for _, sl := range cj.slots {
		if !sl.covered {
			return
		}
	}
	nodes := make([]string, 0, len(cj.completions))
	for n := range cj.completions {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	digest := ""
	for _, n := range nodes {
		d := cj.completions[n]
		if digest == "" {
			digest = d
			continue
		}
		if d != digest {
			pairs := make([]string, 0, len(nodes))
			for _, m := range nodes {
				pairs = append(pairs, fmt.Sprintf("%s=%.12s", m, cj.completions[m]))
			}
			c.opts.Obs.Counter("censerved_cluster_conflicts_total").Inc()
			c.finishLocked(cj, serve.ExecResult{}, serve.Conflict(
				fmt.Errorf("cluster: replica digest mismatch for %s: %v", cj.id, pairs)))
			return
		}
	}
	c.finishLocked(cj, serve.ExecResult{Digest: digest, Replicas: nodes, Remote: true}, nil)
}

func (c *Coordinator) finishLocked(cj *clusterJob, res serve.ExecResult, err error) {
	if cj.finished {
		return
	}
	cj.finished = true
	cj.res = res
	cj.err = err
	delete(c.jobs, cj.id)
	close(cj.done)
	c.broadcastLocked()
}

// Execute implements serve.Backend: place the job on its ring owners
// and block until the replica set agrees (or fails). The serve watchdog
// above this call is the overall liveness backstop.
func (c *Coordinator) Execute(j serve.Job) (serve.ExecResult, error) {
	specJSON, err := json.Marshal(j.Spec)
	if err != nil {
		return serve.ExecResult{}, fmt.Errorf("cluster: marshaling spec: %w", err)
	}
	cj := &clusterJob{
		id:          j.ID,
		specJSON:    specJSON,
		completions: make(map[string]string),
		done:        make(chan struct{}),
	}
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return serve.ExecResult{}, serve.Transient(errors.New("cluster: coordinator draining"))
	}
	owners := c.ring.Owners(j.ID, c.opts.Replication)
	for _, o := range owners {
		cj.slots = append(cj.slots, &slot{node: o, availableSince: c.events})
	}
	c.jobs[j.ID] = cj
	c.opts.Logf("cluster: job %s placed on %v (event %d)", j.ID, owners, c.events)
	c.broadcastLocked()
	c.mu.Unlock()

	<-cj.done
	return cj.res, cj.err
}

// handlePull long-polls for a lease. 200 carries a wire JobLease frame,
// 204 means nothing available before the park timeout, 410 means the
// coordinator is draining and the worker should stop pulling.
func (c *Coordinator) handlePull(w http.ResponseWriter, r *http.Request) {
	node := r.URL.Query().Get("node")
	if _, ok := c.opts.Peers[node]; !ok {
		http.Error(w, fmt.Sprintf("unknown node %q", node), http.StatusBadRequest)
		return
	}
	c.opts.Obs.Counter("censerved_cluster_pulls_total", obs.L("node", node)).Inc()
	//cenlint:volatile long-poll park timer: decides when an idle worker polls again, never placement or result bytes
	park := time.NewTimer(c.opts.PollWait)
	defer park.Stop()
	for {
		c.mu.Lock()
		c.tickLocked()
		lease := c.grantLocked(node)
		draining := c.draining
		notify := c.notify
		c.mu.Unlock()
		if lease != nil {
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(wire.AppendFrame(nil, wire.AppendJobLease(nil, lease)))
			return
		}
		if draining {
			w.WriteHeader(http.StatusGone)
			return
		}
		select {
		case <-notify:
		case <-park.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleComplete ingests one worker completion: a wire Completion frame
// whose digest is the worker's claim about its locally durable result.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 2<<20))
	if err != nil {
		http.Error(w, "reading completion: "+err.Error(), http.StatusBadRequest)
		return
	}
	rd := wire.NewReader(body)
	payload, ok := rd.Next()
	if !ok {
		http.Error(w, "completion body is not a wire frame", http.StatusBadRequest)
		return
	}
	comp, err := wire.DecodeCompletion(payload)
	if err != nil {
		http.Error(w, "decoding completion: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, known := c.opts.Peers[comp.Node]; !known {
		http.Error(w, fmt.Sprintf("unknown node %q", comp.Node), http.StatusBadRequest)
		return
	}
	c.opts.Obs.Counter("censerved_cluster_completions_total", obs.L("node", comp.Node)).Inc()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.tickLocked()
	defer c.broadcastLocked()
	cj, live := c.jobs[comp.ID]
	if !live {
		// Late completion for a finished job: the worker holds an extra
		// durable copy; anti-entropy will notice and keep or log it.
		c.opts.Logf("cluster: late completion for %s from %s ignored", comp.ID, comp.Node)
		w.WriteHeader(http.StatusOK)
		return
	}
	if comp.Error != "" {
		cj.transient++
		cj.lastErr = comp.Error
		if !comp.Transient {
			c.finishLocked(cj, serve.ExecResult{}, errors.New(comp.Error))
		} else if cj.transient > transientPerReplica*c.opts.Replication {
			c.finishLocked(cj, serve.ExecResult{}, serve.Transient(
				fmt.Errorf("cluster: %d transient worker failures, last: %s", cj.transient, cj.lastErr)))
		} else {
			// Release the node's slot, preferring a different node for the
			// re-lease: a node that just failed transiently (full disk,
			// chaos fault) re-grabbing its own slot forever would starve
			// the steal path.
			for _, sl := range cj.slots {
				if !sl.covered && sl.node == comp.Node {
					sl.leased = false
					sl.availableSince = c.events
					if next := c.nextEligibleLocked(cj, sl.node); next != "" {
						c.opts.Logf("cluster: job %s: slot reassigned %s → %s after transient failure", cj.id, sl.node, next)
						sl.node = next
					}
				}
			}
			c.opts.Logf("cluster: job %s: transient failure on %s: %s", cj.id, comp.Node, comp.Error)
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	cj.completions[comp.Node] = comp.Digest
	for _, sl := range cj.slots {
		if !sl.covered && sl.node == comp.Node {
			sl.covered = true
			sl.coveredBy = comp.Node
		}
	}
	c.checkFinishLocked(cj)
	w.WriteHeader(http.StatusOK)
}
