package main

import (
	"bufio"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cendev/internal/serve"
	"cendev/internal/vfs"
)

// Span names. The client's spans of one job hang under its "job" span.
// "exec" spans come from the executor hook and join their job through the
// spec's unique seed; "queue" (submit acknowledged → first execution
// starts) and "done_to_seen" (last execution ends → client sees done) are
// derived from both sides when the run ends. Store and cluster protocol
// spans belong to no job.
const (
	spanJob        = "job"
	spanSubmit     = "submit"
	spanStatus     = "status"
	spanResult     = "result"
	spanDigest     = "digest"
	spanExec       = "exec"
	spanQueue      = "queue"
	spanDoneToSeen = "done_to_seen"
	spanFsync      = "fsync"
	spanPull       = "pull"
	spanComplete   = "complete"
	spanFetch      = "fetch"
	spanClusterRPC = "cluster_rpc"
)

// Counts the recorder keeps beside its spans.
const (
	countBytes  = "store.bytes"
	countLeases = "cluster.leases"
)

// span is one timed interval, in nanoseconds since the recorder's reset.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Job    string `json:"job,omitempty"`
	seed   int64
}

// jobSeen is the client's view of a verified job, for joining executor
// spans to it.
type jobSeen struct {
	id    string
	span  int64
	acked int64
	seen  int64
}

// recorder keeps a traced run's spans and counts in memory until the run
// ends. A nil *recorder records nothing, so untraced runs take the same
// code paths.
type recorder struct {
	ids    atomic.Int64
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
	jobs   map[int64]jobSeen // by spec seed
}

func newRecorder() *recorder {
	r := &recorder{}
	r.reset()
	return r
}

// reset drops everything recorded so far and restarts the clock. It runs
// when timing starts, so set-up and warm-up leave nothing behind.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t0 = time.Now()
	r.spans = nil
	r.counts = make(map[string]int64)
	r.jobs = make(map[int64]jobSeen)
}

func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// record keeps one span; id 0 allocates a fresh one.
func (r *recorder) record(name string, start, end time.Time, id, parent int64, job string, seed int64) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.ids.Add(1)
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Job: job, seed: seed})
	r.mu.Unlock()
}

func (r *recorder) count(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// verified notes a job the client saw done and verified, by spec seed.
func (r *recorder) verified(seed int64, id string, spanID int64, acked, seen time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobs[seed] = jobSeen{id: id, span: spanID,
		acked: acked.Sub(r.t0).Nanoseconds(), seen: seen.Sub(r.t0).Nanoseconds()}
	r.mu.Unlock()
}

// resolve joins executor spans to their jobs through the spec seed, adds
// each job's derived queue and done_to_seen spans, and returns every span
// with the counts. Call it once recording has stopped.
func (r *recorder) resolve() ([]span, map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type execWindow struct{ first, last int64 }
	execs := make(map[int64]execWindow)
	for i := range r.spans {
		s := &r.spans[i]
		j, ok := r.jobs[s.seed]
		if s.Name != spanExec || !ok {
			continue
		}
		s.Job, s.Parent = j.id, j.span
		w, seen := execs[s.seed]
		if !seen {
			w = execWindow{s.Start, s.End}
		}
		w.first, w.last = min(w.first, s.Start), max(w.last, s.End)
		execs[s.seed] = w
	}
	seeds := make([]int64, 0, len(execs))
	for seed := range execs {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	for _, seed := range seeds {
		j, w := r.jobs[seed], execs[seed]
		if w.first >= j.acked {
			r.spans = append(r.spans, span{ID: r.ids.Add(1), Parent: j.span, Name: spanQueue, Start: j.acked, End: w.first, Job: j.id})
		}
		if j.seen >= w.last {
			r.spans = append(r.spans, span{ID: r.ids.Add(1), Parent: j.span, Name: spanDoneToSeen, Start: w.last, End: j.seen, Job: j.id})
		}
	}
	return r.spans, r.counts
}

// selfTimes sums, per span name, each span's duration minus the part of it
// that its children cover; overlapping children count once.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		if a, b := max(iv[0], start), min(iv[1], end); a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curStart, curEnd int64
	for i, iv := range clipped {
		switch {
		case i == 0 || iv[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = iv[0], iv[1]
		case iv[1] > curEnd:
			curEnd = iv[1]
		}
	}
	return total + curEnd - curStart
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hook wraps an executor so every execution is an "exec" span keyed by the
// spec's seed.
func (r *recorder) hook(run func(serve.JobSpec) (json.RawMessage, error)) func(serve.JobSpec) (json.RawMessage, error) {
	return func(spec serve.JobSpec) (json.RawMessage, error) {
		start := time.Now()
		payload, err := run(spec)
		r.record(spanExec, start, time.Now(), 0, 0, "", spec.Seed)
		return payload, err
	}
}

// fs wraps a store's filesystem: every file or directory Sync is an
// "fsync" span and every byte written is counted.
func (r *recorder) fs(base vfs.FS) vfs.FS { return timedFS{FS: base, rec: r} }

type timedFS struct {
	vfs.FS
	rec *recorder
}

func (t timedFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return t.wrap(t.FS.OpenFile(name, flag, perm))
}

func (t timedFS) Open(name string) (vfs.File, error) { return t.wrap(t.FS.Open(name)) }

func (t timedFS) Create(name string) (vfs.File, error) { return t.wrap(t.FS.Create(name)) }

func (t timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.FS.SyncDir(dir)
	t.rec.record(spanFsync, start, time.Now(), 0, 0, "", 0)
	return err
}

func (t timedFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, rec: t.rec}, nil
}

type timedFile struct {
	vfs.File
	rec *recorder
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.rec.count(countBytes, int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.record(spanFsync, start, time.Now(), 0, 0, "", 0)
	return err
}

// client returns an HTTP client over the default transport (the one a nil
// client option falls back to) whose requests become spans named by the
// cluster protocol step they carry.
func (r *recorder) client() *http.Client {
	return &http.Client{Transport: timedTransport{base: http.DefaultTransport, rec: r}}
}

type timedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := rpcSpan(req.URL.Path)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.record(name, start, time.Now(), 0, 0, "", 0)
		return nil, err
	}
	if name == spanPull && resp.StatusCode == http.StatusOK {
		t.rec.count(countLeases, 1)
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.rec.record(name, start, time.Now(), 0, 0, "", 0) }}
	return resp, nil
}

// timedBody ends its request's span when the caller closes the body, so the
// span covers reading the payload, not just the headers.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

func rpcSpan(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/cluster/pull"):
		return spanPull
	case strings.HasPrefix(path, "/v1/cluster/complete"):
		return spanComplete
	case strings.HasPrefix(path, "/v1/cluster/local/"):
		return spanFetch
	}
	return spanClusterRPC
}
