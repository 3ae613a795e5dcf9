package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cendev/internal/serve"
)

// Load model: one process, closed loop, a fixed number of clients. Each
// client holds one keep-alive connection and keeps a fixed window of jobs
// outstanding: it submits until the window is full, sweeps the window's
// statuses, fetches and verifies every job it sees done, and pauses for
// pollPause between sweeps.
const (
	clients = 2
	// pollPause is well under light-mix's submit-to-result median of a few
	// milliseconds.
	pollPause      = 500 * time.Microsecond
	requestTimeout = 30 * time.Second
	// drainLimit bounds how long a phase waits for outstanding jobs once its
	// source is dry; a job still unfinished then is a failure.
	drainLimit = 60 * time.Second
	// maxErrors stops a client's source: past it the deployment is broken,
	// and more submissions would only repeat the same error.
	maxErrors = 100
)

// source hands out a generator's specs with their indices, in order, until
// it is stopped or reaches its limit.
type source struct {
	mu      sync.Mutex
	gen     *generator
	next    int
	limit   int // no specs from this index on; negative means no limit
	stopped bool
	// verified counts the jobs verified from this source so far.
	verified atomic.Int64
}

func (s *source) take() (int, serve.JobSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || (s.limit >= 0 && s.next >= s.limit) {
		return 0, serve.JobSpec{}, false
	}
	i := s.next
	s.next++
	return i, s.gen.next(), true
}

func (s *source) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// finished is one job verified done.
type finished struct {
	latency time.Duration // POST sent → verified result bytes received
	end     time.Time
}

// phase is the outcome of one load phase.
type phase struct {
	done      []finished
	attempted int
	polls     int // status requests sent
	errs      []error
}

// pending is one job in a client's window.
type pending struct {
	idx   int
	id    string
	seed  int64
	span  int64
	sent  time.Time
	acked time.Time
}

type client struct {
	base string
	http *http.Client
	src  *source
	gate *gate
	rec  *recorder
	phase
}

// runPhase drives the clients against base until src runs dry and every
// outstanding job has left its window, or deadline passes.
func runPhase(base string, window int, src *source, g *gate, rec *recorder, deadline time.Time) phase {
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range cs {
		cs[i] = &client{base: base, http: newHTTPClient(), src: src, gate: g, rec: rec}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(window, deadline)
		}(cs[i])
	}
	wg.Wait()
	var out phase
	for _, c := range cs {
		c.http.CloseIdleConnections()
		out.done = append(out.done, c.done...)
		out.attempted += c.attempted
		out.polls += c.polls
		out.errs = append(out.errs, c.errs...)
	}
	return out
}

// newHTTPClient is one client's connection: keep-alive, never more than one
// connection to the server.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (c *client) fail(err error) {
	c.errs = append(c.errs, err)
	if len(c.errs) >= maxErrors {
		c.src.stop()
	}
}

func (c *client) run(window int, deadline time.Time) {
	var out []*pending
	for {
		for len(out) < window {
			idx, spec, ok := c.src.take()
			if !ok {
				break
			}
			c.attempted++
			p, err := c.submit(idx, spec)
			if err != nil {
				c.fail(err)
				continue
			}
			out = append(out, p)
		}
		if len(out) == 0 {
			return
		}
		if time.Now().After(deadline) {
			c.src.stop()
			for _, p := range out {
				c.fail(fmt.Errorf("job %s (spec %d) unfinished at the phase deadline", p.id, p.idx))
			}
			return
		}
		kept := out[:0]
		for _, p := range out {
			left, err := c.poll(p)
			if err != nil {
				c.fail(err)
			}
			if !left {
				kept = append(kept, p)
			}
		}
		out = kept
		time.Sleep(pollPause)
	}
}

func (c *client) submit(idx int, spec serve.JobSpec) (*pending, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("spec %d: %w", idx, err)
	}
	sent := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("spec %d: submit: %w", idx, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	acked := time.Now()
	if err != nil {
		return nil, fmt.Errorf("spec %d: submit: %w", idx, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("spec %d: submit: status %d: %s", idx, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil || ack.ID == "" {
		return nil, fmt.Errorf("spec %d: submit: unreadable acknowledgement %q", idx, raw)
	}
	p := &pending{idx: idx, id: ack.ID, seed: spec.Seed, span: c.rec.newID(), sent: sent, acked: acked}
	c.rec.record(spanSubmit, sent, acked, 0, p.span, p.id, 0)
	return p, nil
}

// poll checks one job once and reports whether it left the window, done
// and verified or failed.
func (c *client) poll(p *pending) (bool, error) {
	c.polls++
	start := time.Now()
	raw, code, err := c.get("/v1/jobs/" + p.id)
	seen := time.Now()
	c.rec.record(spanStatus, start, seen, 0, p.span, p.id, 0)
	if err != nil || code != http.StatusOK {
		return true, fmt.Errorf("job %s (spec %d): status: %d %v %s", p.id, p.idx, code, err, bytes.TrimSpace(raw))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return true, fmt.Errorf("job %s (spec %d): status: %w", p.id, p.idx, err)
	}
	if !st.State.Terminal() {
		return false, nil
	}
	if st.State != serve.StateDone {
		return true, fmt.Errorf("job %s (spec %d) ended %s: %s", p.id, p.idx, st.State, st.Error)
	}
	start = time.Now()
	payload, code, err := c.get("/v1/results/" + p.id)
	fetched := time.Now()
	c.rec.record(spanResult, start, fetched, 0, p.span, p.id, 0)
	if err != nil || code != http.StatusOK {
		return true, fmt.Errorf("job %s (spec %d): result: %d %v", p.id, p.idx, code, err)
	}
	digest := serve.PayloadDigest(payload)
	verified := time.Now()
	c.rec.record(spanDigest, fetched, verified, 0, p.span, p.id, 0)
	if digest != st.Digest {
		return true, fmt.Errorf("job %s (spec %d): payload hashes to %.12s, status digest is %.12s", p.id, p.idx, digest, st.Digest)
	}
	if err := c.gate.check(p.idx, payload); err != nil {
		return true, fmt.Errorf("job %s: %w", p.id, err)
	}
	c.rec.record(spanJob, p.sent, verified, p.span, 0, p.id, 0)
	c.rec.verified(p.seed, p.id, p.span, p.acked, seen)
	c.src.verified.Add(1)
	c.done = append(c.done, finished{latency: verified.Sub(p.sent), end: verified})
	return true, nil
}

func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// gate holds the reference payloads the workload's sample specs must come
// back as, byte for byte: a direct run of the same normalized spec on
// serve.NewScheduler(nil), computed before any deployment starts.
type gate struct {
	refs map[int][]byte // by spec index

	mu          sync.Mutex
	hits        map[int]int
	deployments int
}

func newGate(cat *catalog, wl workload, seed int64) (*gate, error) {
	sched := serve.NewScheduler(nil)
	g := &gate{refs: make(map[int][]byte), hits: make(map[int]int)}
	for idx, spec := range samples(cat, wl, seed) {
		spec.Normalize()
		payload, err := sched.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("reference run of spec %d (%s): %w", idx, spec.Kind, err)
		}
		g.refs[idx] = payload
	}
	return g, nil
}

// deployed notes one more deployment whose warm-up must return every
// sample.
func (g *gate) deployed() {
	g.mu.Lock()
	g.deployments++
	g.mu.Unlock()
}

func (g *gate) check(idx int, payload []byte) error {
	want, ok := g.refs[idx]
	if !ok {
		return nil
	}
	g.mu.Lock()
	g.hits[idx]++
	g.mu.Unlock()
	if !bytes.Equal(payload, want) {
		return fmt.Errorf("spec %d: payload (%d bytes) differs from a direct scheduler run (%d bytes)", idx, len(payload), len(want))
	}
	return nil
}

// missed reports a sample some deployment never returned.
func (g *gate) missed() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for idx := range g.refs {
		if g.hits[idx] < g.deployments {
			return fmt.Errorf("sample spec %d checked in %d of %d deployments", idx, g.hits[idx], g.deployments)
		}
	}
	return nil
}
