package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cendev/internal/obs"
	"cendev/internal/serve"
	"cendev/internal/wire"
)

// swapHandler lets a test replace a worker's HTTP surface mid-run —
// how "this node lost its disk" is simulated without restarting the
// listener.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testCluster is one in-process cluster: a coordinator node (full serve
// API + cluster routes) and N workers on httptest listeners.
type testCluster struct {
	t       testing.TB
	srv     *serve.Server
	coord   *Coordinator
	ts      *httptest.Server
	reg     *obs.Registry
	workers map[string]*Worker
	swaps   map[string]*swapHandler
	peerURL map[string]string
}

// clusterConfig shapes startCluster.
type clusterConfig struct {
	nodes       []string
	replication int
	stealAfter  int64
	// hookFor returns the executor for one node; nil means the real
	// scheduler. Node-dependent hooks build lying or flaky workers.
	hookFor func(node string) func(serve.JobSpec) (json.RawMessage, error)
	// dead lists nodes whose pull loop never starts: HTTP up, execution
	// down — a hung or crashed worker as the cluster sees it.
	dead map[string]bool
	// workerFS injects a per-node filesystem (chaos tests).
	workerFS map[string]WorkerOptions
	serveOpt func(*serve.Options)
}

func startCluster(t testing.TB, cfg clusterConfig) *testCluster {
	t.Helper()
	if cfg.replication == 0 {
		cfg.replication = 2
	}
	if cfg.stealAfter == 0 {
		// Generous default: live workers long-poll aggressively in tests,
		// and every pull ticks the virtual clock, so a tight deadline
		// would spuriously expire leases mid-execution. Tests exercising
		// the steal path set this low explicitly.
		cfg.stealAfter = 256
	}
	tc := &testCluster{
		t:       t,
		reg:     obs.NewRegistry(),
		workers: make(map[string]*Worker),
		swaps:   make(map[string]*swapHandler),
		peerURL: make(map[string]string),
	}
	for _, n := range cfg.nodes {
		wopts := WorkerOptions{
			NodeID:    n,
			StoreDir:  t.TempDir(),
			Obs:       tc.reg,
			Logf:      t.Logf,
			RetryWait: 5 * time.Millisecond,
		}
		if cfg.hookFor != nil {
			wopts.RunHook = cfg.hookFor(n)
		}
		if base, ok := cfg.workerFS[n]; ok && base.FS != nil {
			wopts.FS = base.FS
		}
		w, err := NewWorker(wopts)
		if err != nil {
			t.Fatal(err)
		}
		tc.workers[n] = w
		sh := &swapHandler{h: w.Handler()}
		tc.swaps[n] = sh
		wts := httptest.NewServer(sh)
		t.Cleanup(wts.Close)
		tc.peerURL[n] = wts.URL
	}

	sopts := serve.Options{
		StoreDir:   t.TempDir(),
		Workers:    4,
		AdmitBurst: 4096,
		AdmitRate:  1 << 20,
		Obs:        tc.reg,
		Logf:       t.Logf,
		JobTimeout: 30 * time.Second,
	}
	if cfg.serveOpt != nil {
		cfg.serveOpt(&sopts)
	}
	copts := CoordinatorOptions{
		Peers:       tc.peerURL,
		Replication: cfg.replication,
		StealAfter:  cfg.stealAfter,
		PollWait:    25 * time.Millisecond,
		Obs:         tc.reg,
		Logf:        t.Logf,
	}
	srv, coord, handler, err := NewCoordinatorNode(sopts, copts)
	if err != nil {
		t.Fatal(err)
	}
	tc.srv, tc.coord = srv, coord
	tc.ts = httptest.NewServer(handler)
	t.Cleanup(tc.ts.Close)

	for _, n := range cfg.nodes {
		tc.workers[n].SetCoordinatorURL(tc.ts.URL)
		if !cfg.dead[n] {
			tc.workers[n].Start()
		}
	}
	t.Cleanup(func() {
		for _, w := range tc.workers {
			w.pullStop()
		}
	})
	return tc
}

func (tc *testCluster) submit(spec serve.JobSpec) string {
	tc.t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(tc.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		tc.t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		tc.t.Fatal(err)
	}
	return sr.ID
}

func (tc *testCluster) waitTerminal(id string) serve.JobStatus {
	tc.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(tc.ts.URL + "/v1/jobs/" + id)
		if err != nil {
			tc.t.Fatal(err)
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			tc.t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	tc.t.Fatalf("job %s not terminal after 60s", id)
	return serve.JobStatus{}
}

func (tc *testCluster) fetchResult(id string) []byte {
	tc.t.Helper()
	resp, err := http.Get(tc.ts.URL + "/v1/results/" + id)
	if err != nil {
		tc.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		tc.t.Fatalf("GET /v1/results/%s = %d: %s", id, resp.StatusCode, raw)
	}
	return raw
}

// echoHook is a cheap deterministic executor: the payload is a pure
// function of the spec, like the real scheduler but without the world.
func echoHook(node string) func(serve.JobSpec) (json.RawMessage, error) {
	return func(spec serve.JobSpec) (json.RawMessage, error) {
		return json.RawMessage(fmt.Sprintf(`{"endpoint":%q,"domain":%q,"seed":%d}`,
			spec.Endpoint, spec.Domain, spec.Seed)), nil
	}
}

// TestClusterMatchesStandalone is the acceptance-criteria test: the
// same spec+seed through a standalone censerved and through a 3-node
// cluster (replication 2, real scheduler on every worker) must produce
// byte-identical result payloads, verified by SHA-256 at every hop.
func TestClusterMatchesStandalone(t *testing.T) {
	spec := serve.JobSpec{
		Kind:     serve.KindCenTrace,
		Endpoint: "az-ep-0-0",
		Domain:   "www.globalblocked.example",
		Seed:     7,
		Loss:     0.05,
	}

	// Standalone reference run.
	srv, err := serve.New(serve.Options{
		StoreDir: t.TempDir(), Obs: obs.NewRegistry(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(srv.Handler())
	defer sts.Close()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(sts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var want []byte
	deadline := time.Now().Add(60 * time.Second)
	for {
		r2, err := http.Get(sts.URL + "/v1/results/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(r2.Body)
		r2.Body.Close()
		if r2.StatusCode == http.StatusOK {
			want = raw
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standalone job never finished: %d %s", r2.StatusCode, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 3-node cluster run with the real scheduler on every worker.
	tc := startCluster(t, clusterConfig{nodes: []string{"w1", "w2", "w3"}, replication: 2})
	id := tc.submit(spec)
	st := tc.waitTerminal(id)
	if st.State != serve.StateDone {
		t.Fatalf("cluster job: state %s (%s)", st.State, st.Error)
	}
	if len(st.Replicas) != 2 {
		t.Fatalf("replicas = %v, want 2 distinct nodes", st.Replicas)
	}
	if st.Digest != serve.PayloadDigest(want) {
		t.Fatalf("cluster digest %s != standalone digest %s", st.Digest, serve.PayloadDigest(want))
	}
	got := tc.fetchResult(id)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster payload diverged from standalone:\n  cluster    %s\n  standalone %s", got, want)
	}

	// Every replica's local copy is byte-identical too.
	for _, n := range st.Replicas {
		e, ok := tc.workers[n].Store().Get(id)
		if !ok || !bytes.Equal(e.Payload, want) {
			t.Fatalf("replica %s local copy missing or diverged", n)
		}
	}

	if err := tc.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, n := range []string{"w1", "w2", "w3"} {
		if err := tc.workers[n].Drain(); err != nil {
			t.Fatalf("worker %s drain: %v", n, err)
		}
	}
}

// TestClusterStealsFromDeadWorker: a worker that never pulls (HTTP up,
// execution down) must not stall the cluster — its replica slots expire
// in virtual time and are stolen by live nodes, and every job still
// finishes with the full replica count and matching digests.
func TestClusterStealsFromDeadWorker(t *testing.T) {
	tc := startCluster(t, clusterConfig{
		nodes:       []string{"w1", "w2", "w3"},
		replication: 2,
		stealAfter:  4,
		hookFor:     echoHook,
		dead:        map[string]bool{"w2": true},
	})
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		ids = append(ids, tc.submit(serve.JobSpec{
			Kind: serve.KindCenProbe, Endpoint: fmt.Sprintf("ep-%d", i), Seed: int64(i + 1),
		}))
	}
	for _, id := range ids {
		st := tc.waitTerminal(id)
		if st.State != serve.StateDone {
			t.Fatalf("job %s: state %s (%s)", id, st.State, st.Error)
		}
		if len(st.Replicas) != 2 {
			t.Fatalf("job %s: replicas %v, want 2", id, st.Replicas)
		}
		for _, n := range st.Replicas {
			if n == "w2" {
				t.Fatalf("job %s: dead node w2 listed as replica", id)
			}
		}
	}
	if steals := tc.reg.Counter("censerved_cluster_steals_total").Value(); steals == 0 {
		t.Fatal("no steals recorded; with 8 jobs over a 3-node ring, w2 owned some slots")
	}
	if err := tc.srv.Drain(); err != nil {
		t.Fatalf("drain with dead worker: %v", err)
	}
}

// TestClusterConflictDetection: a worker that returns different bytes
// than its peers (lying, corrupt, or non-deterministic) must surface as
// StateConflict — never as a silently wrong result.
func TestClusterConflictDetection(t *testing.T) {
	tc := startCluster(t, clusterConfig{
		nodes:       []string{"w1", "w2"},
		replication: 2,
		hookFor: func(node string) func(serve.JobSpec) (json.RawMessage, error) {
			return func(spec serve.JobSpec) (json.RawMessage, error) {
				// w2 lies: its payload depends on the node, violating the
				// determinism contract.
				return json.RawMessage(fmt.Sprintf(`{"seed":%d,"node":%q}`, spec.Seed, node)), nil
			}
		},
	})
	id := tc.submit(serve.JobSpec{Kind: serve.KindCenProbe, Seed: 3})
	st := tc.waitTerminal(id)
	if st.State != serve.StateConflict {
		t.Fatalf("state = %s (%s), want conflict", st.State, st.Error)
	}
	if tc.reg.Counter("censerved_cluster_conflicts_total").Value() == 0 {
		t.Fatal("conflict metric not bumped")
	}
	resp, err := http.Get(tc.ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /v1/results on conflicted job = %d, want 500", resp.StatusCode)
	}
}

// TestClusterReadRepair: wiping one replica and reading the result must
// (a) still serve the right bytes from the surviving replica and
// (b) push a verified copy back onto the wiped node.
func TestClusterReadRepair(t *testing.T) {
	tc := startCluster(t, clusterConfig{
		nodes:       []string{"w1", "w2"},
		replication: 2,
		hookFor:     echoHook,
	})
	id := tc.submit(serve.JobSpec{Kind: serve.KindCenProbe, Endpoint: "ep-r", Seed: 5})
	st := tc.waitTerminal(id)
	if st.State != serve.StateDone || len(st.Replicas) != 2 {
		t.Fatalf("setup: state %s replicas %v", st.State, st.Replicas)
	}
	want := tc.fetchResult(id)

	// w2 loses its disk: swap in a fresh worker with an empty store.
	blank, err := NewWorker(WorkerOptions{NodeID: "w2", StoreDir: t.TempDir(), Obs: tc.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tc.swaps["w2"].swap(blank.Handler())
	if _, ok := blank.Store().Get(id); ok {
		t.Fatal("blank worker already has the result")
	}

	got := tc.fetchResult(id)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-wipe read diverged: %s vs %s", got, want)
	}
	e, ok := blank.Store().Get(id)
	if !ok || !bytes.Equal(e.Payload, want) || e.Digest != st.Digest {
		t.Fatalf("read-repair did not restore w2's replica (ok=%v)", ok)
	}
	if tc.reg.Counter("censerved_cluster_repairs_total").Value() == 0 {
		t.Fatal("repair metric not bumped")
	}
}

// TestWorkerRepairAfterDrain: a repair push that reaches a worker after
// its drain closed the local store is refused with 503 (it used to panic
// on the released segment handle), and nothing is installed.
func TestWorkerRepairAfterDrain(t *testing.T) {
	w, err := NewWorker(WorkerOptions{NodeID: "w1", StoreDir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}

	spec, _ := json.Marshal(serve.JobSpec{Kind: serve.KindCenProbe, Seed: 5})
	payload := []byte(`{"probes":[]}`)
	body := wire.AppendFrame(nil, wire.AppendJobLease(nil, &wire.JobLease{ID: "j-1", Node: "w1", Owner: "w1", Spec: spec}))
	body = wire.AppendFrame(body, wire.AppendCompletion(nil, &wire.Completion{
		ID: "j-1", Node: "w1", Digest: serve.PayloadDigest(payload), Payload: payload,
	}))
	resp, err := http.Post(ts.URL+"/v1/cluster/repair", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("repair after drain = %d (%s), want 503", resp.StatusCode, raw)
	}
	if _, ok := w.Store().Get("j-1"); ok {
		t.Fatal("repair after drain installed a result")
	}
}

// TestClusterAntiEntropySweep: the seeded sweep finds a wiped replica
// without any read traffic and restores it.
func TestClusterAntiEntropySweep(t *testing.T) {
	tc := startCluster(t, clusterConfig{
		nodes:       []string{"w1", "w2"},
		replication: 2,
		hookFor:     echoHook,
	})
	ids := []string{
		tc.submit(serve.JobSpec{Kind: serve.KindCenProbe, Endpoint: "ep-a", Seed: 11}),
		tc.submit(serve.JobSpec{Kind: serve.KindCenProbe, Endpoint: "ep-b", Seed: 12}),
	}
	for _, id := range ids {
		if st := tc.waitTerminal(id); st.State != serve.StateDone {
			t.Fatalf("setup: job %s state %s", id, st.State)
		}
	}

	blank, err := NewWorker(WorkerOptions{NodeID: "w1", StoreDir: t.TempDir(), Obs: tc.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tc.swaps["w1"].swap(blank.Handler())

	rep, err := tc.coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != len(ids) {
		t.Fatalf("sweep repaired %d results, want %d (report %+v)", rep.Repaired, len(ids), rep)
	}
	if len(rep.Unrepairable) != 0 {
		t.Fatalf("sweep left unrepairable jobs: %v", rep.Unrepairable)
	}
	for _, id := range ids {
		if _, ok := blank.Store().Get(id); !ok {
			t.Fatalf("sweep did not restore %s on w1", id)
		}
	}

	// A second sweep over the healed cluster verifies everything in
	// place and repairs nothing.
	rep2, err := tc.coord.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired != 0 || rep2.RangesMismatch != 0 {
		t.Fatalf("post-heal sweep not clean: %+v", rep2)
	}
}
