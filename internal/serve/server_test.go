package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cendev/internal/obs"
)

func startServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.StoreDir == "" {
		opts.StoreDir = t.TempDir()
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (string, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, raw)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.ID, resp
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s not terminal after 60s", id)
	return JobStatus{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results/%s = %d: %s", id, resp.StatusCode, raw)
	}
	return raw
}

// TestServerDeterministicResults is the acceptance-criteria test: the
// same spec submitted twice onto a concurrent queue — interleaved with
// different jobs — and then again on a server with a different worker
// count must return byte-identical result payloads.
func TestServerDeterministicResults(t *testing.T) {
	spec := JobSpec{
		Kind:     KindCenTrace,
		Endpoint: "az-ep-0-0",
		Domain:   "www.globalblocked.example",
		Seed:     7,
		Loss:     0.05,
	}
	noise := JobSpec{
		Kind:     KindCenTrace,
		Endpoint: "kz-ep-0-0",
		Domain:   "www.pokerstars.com",
		Protocol: "https",
		Seed:     3,
	}

	_, ts4 := startServer(t, Options{Workers: 4, AdmitBurst: 64})
	idA, _ := submit(t, ts4, spec)
	idN1, _ := submit(t, ts4, noise)
	idB, _ := submit(t, ts4, spec)
	idN2, _ := submit(t, ts4, noise)

	for _, id := range []string{idA, idN1, idB, idN2} {
		if st := waitDone(t, ts4, id); st.State != StateDone {
			t.Fatalf("job %s: state %s error %q", id, st.State, st.Error)
		}
	}
	resA := fetchResult(t, ts4, idA)
	resB := fetchResult(t, ts4, idB)
	if !bytes.Equal(resA, resB) {
		t.Errorf("same spec, same server: payloads differ\nA: %s\nB: %s", resA, resB)
	}
	if bytes.Equal(resA, fetchResult(t, ts4, idN1)) {
		t.Error("different specs produced identical payloads; results are not spec-dependent")
	}

	// Same spec on a single-worker server in a fresh store: still
	// byte-identical.
	_, ts1 := startServer(t, Options{Workers: 1, AdmitBurst: 64})
	idC, _ := submit(t, ts1, spec)
	if st := waitDone(t, ts1, idC); st.State != StateDone {
		t.Fatalf("job %s on 1-worker server: state %s error %q", idC, st.State, st.Error)
	}
	if resC := fetchResult(t, ts1, idC); !bytes.Equal(resA, resC) {
		t.Errorf("workers=4 vs workers=1: payloads differ\nA: %s\nC: %s", resA, resC)
	}
}

func TestServerAdmission429(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	_, ts := startServer(t, Options{AdmitBurst: 1, AdmitRate: 0.25, Now: clk.now})

	spec := JobSpec{Kind: KindCenProbe}
	submit(t, ts, spec) // spends the only token

	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated tenant: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Errorf("Retry-After = %q, want \"4\" (1 token at 0.25/s)", ra)
	}
	var er errorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	if er.RetryAfterSec != 4 {
		t.Errorf("body retry_after_sec = %d, want 4", er.RetryAfterSec)
	}

	// A different tenant is unaffected.
	other := spec
	other.Tenant = "other"
	submit(t, ts, other)
}

func TestServerQueueFull429(t *testing.T) {
	srv, ts := startServer(t, Options{QueueCapacity: 1, AdmitBurst: 64})
	// Hold the only queue slot with a reservation so the submission path
	// hits a deterministically full queue.
	if err := srv.queue.Reserve(); err != nil {
		t.Fatal(err)
	}
	defer srv.queue.Release()

	body, _ := json.Marshal(JobSpec{Kind: KindCenProbe})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("full-queue 429 missing Retry-After header")
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := startServer(t, Options{})
	for name, body := range map[string]string{
		"unknown kind":   `{"kind":"nope"}`,
		"missing domain": `{"kind":"centrace"}`,
		"bad loss":       `{"kind":"cenprobe","loss":1.5}`,
		"unknown field":  `{"kind":"cenprobe","bogus":1}`,
		"not json":       `{{{`,
		"data after":     `{"kind":"cenprobe","seed":3} {"kind":"nope"} trailing garbage`,
		"second spec":    `{"kind":"cenprobe","seed":3}{"kind":"cenprobe","seed":4}`,
		"stray brace":    `{"kind":"cenprobe","seed":3}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j-00424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
}

// TestDecodeSpecOneObject: whitespace may follow the spec object, and
// nothing else may.
func TestDecodeSpecOneObject(t *testing.T) {
	for _, raw := range []string{`{"kind":"cenprobe","seed":3}`, "{\"kind\":\"cenprobe\",\"seed\":3}\r\n\t "} {
		if spec, err := DecodeSpec([]byte(raw)); err != nil || spec.Seed != 3 {
			t.Errorf("DecodeSpec(%q) = %+v, %v; want seed 3", raw, spec, err)
		}
	}
	for _, raw := range []string{`{"kind":"cenprobe"} x`, `{"kind":"cenprobe"}{}`, `{"kind":"cenprobe"}]`, `{"kind":"cenprobe"} 1`} {
		if _, err := DecodeSpec([]byte(raw)); err == nil {
			t.Errorf("DecodeSpec(%q) accepted data after the spec", raw)
		}
	}
}

// TestSpecValidateLoss: a loss rate outside [0,1) is refused, NaN and
// the infinities included. JSON cannot carry those and CanonKey cannot
// key them, so a spec holding one must never be admitted.
func TestSpecValidateLoss(t *testing.T) {
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1} {
		spec := JobSpec{Kind: KindCenProbe, Loss: loss}
		spec.Normalize()
		if err := spec.Validate(); err == nil {
			t.Errorf("loss %v validated", loss)
		}
	}
	spec := JobSpec{Kind: KindCenProbe, Loss: 0.5}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Errorf("loss 0.5 rejected: %v", err)
	}
}

func TestServerResultStates(t *testing.T) {
	srv, ts := startServer(t, Options{})
	// A failed job: unknown endpoint ID.
	id, _ := submit(t, ts, JobSpec{Kind: KindCenTrace, Domain: "www.globalblocked.example", Endpoint: "no-such-host"})
	st := waitDone(t, ts, id)
	if st.State != StateFailed || st.Error == "" {
		t.Fatalf("job with bad endpoint: %+v, want failed with error", st)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("result of failed job: %d, want 500", resp.StatusCode)
	}

	// A queued job (held back by a drained worker pool) reports 409.
	// Simulate by writing directly to the store: the job is never queued.
	e, err := srv.store.AppendQueued(testSpec("www.globalblocked.example"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/results/" + e.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of queued job: %d, want 409", resp.StatusCode)
	}
}

// TestServerMetricsEndpoint checks the service series on /metrics, and
// that a job's measurement series are there as soon as it reads done:
// the packets of a centrace job must equal those of a direct instrumented
// run of the same spec.
func TestServerMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := startServer(t, Options{Obs: reg, AdmitBurst: 8})
	id, _ := submit(t, ts, JobSpec{Kind: KindCenProbe, Tenant: "acme"})
	waitDone(t, ts, id)
	trace := JobSpec{Kind: KindCenTrace, Endpoint: "az-ep-0-0", Domain: "www.globalblocked.example", Seed: 7, Loss: 0.05}
	id, _ = submit(t, ts, trace)
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("centrace job: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("content type = %q, want %q", ct, obs.PromContentType)
	}
	raw, _ := io.ReadAll(resp.Body)
	direct := obs.NewRegistry()
	trace.Normalize()
	if _, err := NewScheduler(direct).Run(trace); err != nil {
		t.Fatal(err)
	}
	packets, ok := direct.Snapshot().Get("simnet_packets_forwarded_total")
	if !ok || packets.Value == 0 {
		t.Fatalf("direct run counted no packets: %+v", packets)
	}
	for _, want := range []string{
		`censerved_jobs_submitted_total{tenant="acme"} 1`,
		`censerved_jobs_done_total{kind="cenprobe"} 1`,
		`censerved_jobs_done_total{kind="centrace"} 1`,
		fmt.Sprintf("\nsimnet_packets_forwarded_total %d\n", packets.Value),
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerCrashRecovery simulates a kill -9 mid-campaign: a store is
// left with queued and running jobs plus a torn segment tail, then a new
// server opens the same directory. The jobs must be re-enqueued, re-run
// to completion, and the segments repaired.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Kind: KindCenTrace, Domain: "www.globalblocked.example", Seed: 7}
	spec.Normalize()
	queued, err := st.AppendQueued(spec)
	if err != nil {
		t.Fatal(err)
	}
	interrupted, err := st.AppendQueued(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateState(interrupted.ID, StateRunning, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	// kill -9: no drain, no close; plus a torn append on one segment.
	// (Abandoning the open store mimics the process dying with the files.)
	f, err := os.OpenFile(st.shards[0].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"seq":77,"id":"j-0007`)
	f.Close()

	var logMu sync.Mutex
	var logs []string
	srv, ts := startServer(t, Options{StoreDir: dir, Workers: 2,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})

	stA := waitDone(t, ts, queued.ID)
	stB := waitDone(t, ts, interrupted.ID)
	if stA.State != StateDone {
		t.Fatalf("recovered queued job: %+v", stA)
	}
	if stB.State != StateDone {
		t.Fatalf("recovered running job: %+v", stB)
	}
	if stB.Attempts < 2 {
		t.Errorf("interrupted job attempts = %d, want >= 2 (re-run)", stB.Attempts)
	}
	// Determinism across the crash: both jobs ran the same spec.
	if a, b := fetchResult(t, ts, queued.ID), fetchResult(t, ts, interrupted.ID); !bytes.Equal(a, b) {
		t.Error("same spec across crash recovery: payloads differ")
	}

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertCleanSegments(t, dir)

	logMu.Lock()
	defer logMu.Unlock()
	var sawRecovery bool
	for _, l := range logs {
		if strings.Contains(l, "recovered") {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Errorf("no recovery log lines; logs = %q", logs)
	}
}

// TestServerSubmitAfterStoreClosed: a submission that races a drain can
// find the store already closed. Both submit paths — a result-cache hit
// and a fresh job — must answer 503, not fail with 500 or panic.
func TestServerSubmitAfterStoreClosed(t *testing.T) {
	srv, ts := startServer(t, Options{AdmitBurst: 64})
	spec := JobSpec{Kind: KindCenProbe, Seed: 5}
	id, _ := submit(t, ts, spec)
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("job %s: state %s error %q", id, st.State, st.Error)
	}
	if err := srv.Store().Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"cache hit", spec},
		{"fresh job", JobSpec{Kind: KindCenProbe, Seed: 6}},
	} {
		body, _ := json.Marshal(tc.spec)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s submit with the store closed = %d (%s), want 503", tc.name, resp.StatusCode, raw)
		}
	}
	if err := srv.Drain(); err != nil && !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("drain: %v", err)
	}
}

func TestServerDrain(t *testing.T) {
	srv, ts := startServer(t, Options{})
	id, _ := submit(t, ts, JobSpec{Kind: KindCenProbe})
	waitDone(t, ts, id)

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}

	// Draining: healthz 503, submissions 503, reads still work.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	body, _ := json.Marshal(JobSpec{Kind: KindCenProbe})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status read while draining: %d, want 200", resp.StatusCode)
	}
}
