// Command perfbench is the repository's end-to-end benchmark. It sends a
// seeded job mix over loopback HTTP to an in-process censerved, standalone
// or as a coordinator with three workers, verifies every result, and prints
// the end-to-end metrics; a traced run prints the per-layer split instead.
// README.md in this directory describes the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload light-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output was correct, the jobs attempted and failed, and the metrics with
// their units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupsPerRun is how many times an end-to-end run builds its deployment;
// setup_s is their median.
const setupsPerRun = 5

// slices is how many equal parts the timed window is cut into. After each
// part the load stops, the service drains, and the host is probed.
// jobs_per_s and cpu_ms_per_job are medians over the parts, so a burst of
// interference from outside the process in one part moves them little.
const slices = 15

// rssEvery is how often the resident set size is sampled in the window.
const rssEvery = 10 * time.Millisecond

// rssQuantile is the quantile of the samples max_rss_mb reports: a high
// one, not the single highest sample, which one garbage collection that
// came late can set on its own.
const rssQuantile = 0.9

// registryCounters are the measurement series read from the nodes'
// registries around the timed window.
var registryCounters = []string{
	"simnet_packets_forwarded_total",
	"centrace_probes_total",
	"centrace_retries_total",
	"faults_drops_total",
	"censerved_cluster_steals_total",
}

// printedOnly are metrics printed as text but kept out of the result line.
// They time the cluster protocol, which a standalone deployment does not
// run, so on two of the three workloads they could only read 0; the result
// line carries the same metric set on every workload.
var printedOnly = map[string]bool{
	"cluster.pull_p50_ms":     true,
	"cluster.complete_p50_ms": true,
	"cluster.fetch_p50_ms":    true,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "light-mix", "workload: light-mix, heavy-mix or cluster-light")
	seed := flag.Int64("seed", 1, "workload seed; the job specs are a pure function of it")
	seconds := flag.Int("seconds", 10, "length of the timed window, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	wl, err := workloadNamed(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cat := worldCatalog()
	g, err := newGate(cat, wl, seed)
	if err != nil {
		return err
	}
	prov, err := json.Marshal(provenanceOf(root, work))
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", prov)
	window := time.Duration(seconds) * time.Second

	var runs []*measurement
	var metrics map[string]metric
	if !traced {
		m, err := measure(wl, cat, seed, window, work, g, nil, setupsPerRun)
		if err != nil {
			return err
		}
		runs = []*measurement{m}
		metrics = endToEnd(m)
	} else {
		// The window is split between an untraced and a traced run of the
		// same specs; their throughput ratio is the tracing overhead.
		plain, err := measure(wl, cat, seed, window/2, work, g, nil, 1)
		if err != nil {
			return err
		}
		rec := newRecorder()
		tm, err := measure(wl, cat, seed, window/2, work, g, rec, 1)
		if err != nil {
			return err
		}
		micros, err := runMicros(work)
		if err != nil {
			return err
		}
		spans, counts := rec.resolve()
		path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed))
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
		runs = []*measurement{plain, tm}
		metrics = perLayer(plain, tm, spans, counts, micros)
	}

	res := result{Metrics: make(map[string]metric, len(metrics))}
	for n, v := range metrics {
		if !printedOnly[n] {
			res.Metrics[n] = v
		}
	}
	for _, m := range runs {
		res.Attempted += m.attempted
		res.Failed += len(m.errs)
		for _, e := range m.errs[:min(len(m.errs), 10)] {
			fmt.Println("error:", e)
		}
	}
	missed := g.missed()
	if missed != nil {
		fmt.Println("error:", missed)
	}
	res.Correct = res.Failed == 0 && missed == nil
	fmt.Printf("metric %-32s %14.6g ratio (%d failed of %d attempted; not in the result line)\n",
		"error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measurement is what one workload run measured, as timed. The end-to-end
// metrics scale it by the median of its probes (probe.go).
type measurement struct {
	setups    []float64   // seconds from construction to warm-up verified, per deployment
	slices    []slice     // the timed parts of the window
	latencies []float64   // ms, of the jobs verified inside the slices
	probes    []hostSpeed // before the first slice and after each
	byService bool        // scaled by the service probe as well as the compute probe
	// rssKB are the resident set sizes sampled while fewer than rssJobs
	// jobs had been verified in the window.
	rssKB     []float64
	rssJobs   int
	verified  int    // jobs verified in the window, drains included
	allocated uint64 // heap bytes allocated over the slices and drains
	gcs       uint32 // GC cycles over the slices and drains
	attempted int
	polls     int // status requests sent in the timed phase
	errs      []error
	// wall is how long the slices and their drains took, probes excluded.
	// counters run from timing start to end; the service is idle while a
	// probe runs.
	wall     time.Duration
	counters map[string]int64
}

// slice is one timed part of the window: its length until the load
// stopped, the jobs verified by then, and the process CPU time it took.
type slice struct {
	seconds float64
	jobs    int
	cpu     time.Duration
}

// scales are the medians of the run's wall and CPU scales. A workload
// scaled by both probes takes the geometric mean of their scales. One pair
// per run, not per slice: a single probe is too short to be exact, and a
// median over every probe of the run is not moved by one that is off.
func (m *measurement) scales() (host, cpu float64) {
	var hs, cs []float64
	for _, h := range m.probes {
		w, c := h.compute.scales(nominal.compute)
		if m.byService {
			sw, sc := h.service.scales(nominal.service)
			w, c = math.Sqrt(w*sw), math.Sqrt(c*sc)
		}
		hs = append(hs, w)
		cs = append(cs, c)
	}
	return median(hs), median(cs)
}

// rates are the slices' job rates scaled to the reference host.
func (m *measurement) rates() []float64 {
	host, _ := m.scales()
	var out []float64
	for _, s := range m.slices {
		out = append(out, float64(s.jobs)/s.seconds*host)
	}
	return out
}

func (m *measurement) add(p phase) {
	m.attempted += p.attempted
	m.errs = append(m.errs, p.errs...)
}

// measure deploys the workload setups times, each through health and the
// warm-up batch, keeps the last deployment, and drives it for window in
// slices. It probes the host before the first slice and after each. A
// non-nil rec traces it.
func measure(wl workload, cat *catalog, seed int64, window time.Duration, work string, g *gate, rec *recorder, setups int) (m *measurement, err error) {
	m = &measurement{}
	var d *deployment
	defer func() {
		if d != nil {
			if cerr := d.close(); cerr != nil && err == nil {
				m, err = nil, cerr
			}
		}
	}()
	pr, err := newProber(work)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := pr.close(); cerr != nil && err == nil {
			m, err = nil, cerr
		}
	}()
	m.byService = wl.byService
	var src *source
	for k := 0; k < setups; k++ {
		if d != nil {
			cerr := d.close()
			d = nil
			if cerr != nil {
				return nil, cerr
			}
		}
		start := time.Now()
		if d, err = deploy(filepath.Join(work, fmt.Sprintf("%s-%d", wl.name, k)), wl.cluster, rec); err != nil {
			return nil, err
		}
		g.deployed()
		src = &source{gen: newGenerator(cat, wl, seed), limit: wl.warm}
		m.add(runPhase(d.url, wl.window, src, g, rec, time.Now().Add(drainLimit)))
		m.setups = append(m.setups, time.Since(start).Seconds())
	}

	rec.reset()
	m.rssJobs = wl.rssJobs
	before := d.counters(registryCounters)
	if err := m.probe(pr); err != nil {
		return nil, err
	}
	for k := 0; k < slices && len(m.errs) < maxErrors; k++ {
		// A fresh source carries on the same generator, so the specs and
		// their seeds run on from one slice to the next.
		src = &source{gen: src.gen, next: src.next, limit: -1}
		m.runSlice(d.url, wl.window, src, g, rec, window/slices)
		if err := m.probe(pr); err != nil {
			return nil, err
		}
	}
	after := d.counters(registryCounters)
	m.counters = make(map[string]int64, len(registryCounters))
	for _, n := range registryCounters {
		m.counters[n] = after[n] - before[n]
	}
	if len(m.latencies) == 0 {
		return nil, fmt.Errorf("%s: no job verified inside the %s window", wl.name, window)
	}
	return m, nil
}

// probe probes the host while the service is idle and keeps the reading.
func (m *measurement) probe(p *prober) error {
	h, err := p.probe()
	m.probes = append(m.probes, h)
	return err
}

// runSlice drives the deployment at url for length, then stops taking
// specs and waits until every outstanding job has left its client's
// window. The slice and the latencies it keeps cover the jobs verified
// before the load stopped. While fewer than rssJobs jobs have been
// verified in the window, it samples the resident set size.
func (m *measurement) runSlice(url string, window int, src *source, g *gate, rec *recorder, length time.Duration) {
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	start, cpu0 := time.Now(), cpuTime()
	var stop time.Time
	var cpu time.Duration
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for now := range tick.C {
			if m.verified+int(src.verified.Load()) < m.rssJobs {
				m.rssKB = append(m.rssKB, float64(rssKB()))
			}
			if now.Sub(start) >= length {
				break
			}
		}
		src.stop()
		stop, cpu = time.Now(), cpuTime()-cpu0
	}()
	ph := runPhase(url, window, src, g, rec, start.Add(length+drainLimit))
	<-stopped
	m.wall += time.Since(start)
	runtime.ReadMemStats(&mem1)
	m.allocated += mem1.TotalAlloc - mem0.TotalAlloc
	m.gcs += mem1.NumGC - mem0.NumGC
	m.verified += len(ph.done)
	m.polls += ph.polls
	m.add(ph)
	s := slice{seconds: stop.Sub(start).Seconds(), cpu: cpu}
	for _, f := range ph.done {
		if !f.end.After(stop) {
			s.jobs++
			m.latencies = append(m.latencies, msOf(f.latency))
		}
	}
	m.slices = append(m.slices, s)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssKB is the process's resident set size now, from /proc/self/statm;
// where that cannot be read, the peak so far from getrusage.
func rssKB() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(raw)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return pages * int64(os.Getpagesize()) / 1024
			}
		}
	}
	return int64(rusage().Maxrss)
}

// endToEnd is what a user of the service sees, measured untraced and
// scaled to the reference host. The same figures unscaled go to a text
// line.
func endToEnd(m *measurement) map[string]metric {
	host, cpuScale := m.scales()
	tail, pct := tailPercentile(m.latencies)
	var seconds float64
	var cpus []float64
	for _, s := range m.slices {
		seconds += s.seconds
		if s.jobs > 0 {
			cpus = append(cpus, msOf(s.cpu)/float64(s.jobs))
		}
	}
	rates := m.rates()
	fmt.Printf("window %.3fs in %d slices: %d jobs verified inside them; submit_to_result_p99_ms reports p%d\n",
		seconds, len(m.slices), len(m.latencies), pct)
	if m.verified < m.rssJobs {
		fmt.Printf("max_rss_mb covers the window's %d jobs, fewer than the %d it should\n", m.verified, m.rssJobs)
	}
	m.printProbes()
	fmt.Printf("host scale %.4f, cpu scale %.4f\n", host, cpuScale)
	fmt.Printf("setups_s %.3f\n", m.setups)
	fmt.Printf("slice jobs_per_s scaled %.1f\n", rates)
	fmt.Printf("polls per job %.2f\n", float64(m.polls)/float64(max(m.verified, 1)))
	raw, _ := json.Marshal(map[string]float64{
		"jobs_per_s":              median(rates) / host,
		"submit_to_result_p50_ms": median(m.latencies),
		"submit_to_result_p99_ms": tail,
		"cpu_ms_per_job":          median(cpus),
		"setup_s":                 median(m.setups),
	}) // a map of finite floats always encodes
	fmt.Printf("unscaled %s\n", raw)
	return map[string]metric{
		"jobs_per_s":              {median(rates), "1/s"},
		"submit_to_result_p50_ms": {median(m.latencies) / host, "ms"},
		"submit_to_result_p99_ms": {tail / host, "ms"},
		"cpu_ms_per_job":          {median(cpus) / cpuScale, "ms"},
		"max_rss_mb":              {quantile(sortedCopy(m.rssKB), rssQuantile) / 1024, "MB"},
		"setup_s":                 {median(m.setups) / host, "s"},
	}
}

// printProbes prints the run's probe readings.
func (m *measurement) printProbes() {
	var cw, cc, sw, sc []float64
	for _, h := range m.probes {
		cw, cc = append(cw, msOf(h.compute.wall)), append(cc, msOf(h.compute.cpu))
		sw, sc = append(sw, msOf(h.service.wall)), append(sc, msOf(h.service.cpu))
	}
	fmt.Printf("compute probes: wall ms %.1f; cpu ms %.1f\n", cw, cc)
	fmt.Printf("service probes: wall ms %.1f; cpu ms %.1f\n", sw, sc)
}

// perLayer splits the traced run by layer. Per-job figures divide by every
// job verified from timing start through the drain; busy shares divide by
// that same wall time. Metrics of a layer the workload does not run (the
// cluster protocol on a standalone deployment) read 0.
func perLayer(plain, traced *measurement, spans []span, counts map[string]int64, micros []micro) map[string]metric {
	durs := make(map[string][]float64) // ns
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
	}
	jobs := float64(len(durs[spanJob]))
	wall := float64(traced.wall.Nanoseconds())
	const ms, us = 1e6, 1e3
	p50 := func(name string, unit float64) float64 { return orZero(median(durs[name])) / unit }
	p99 := func(name string, unit float64) float64 {
		v, _ := tailPercentile(durs[name])
		return orZero(v) / unit
	}
	sum := func(name string) float64 {
		var t float64
		for _, d := range durs[name] {
			t += d
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rate := func(m *measurement) float64 { return median(m.rates()) }
	c := traced.counters
	packets := float64(c["simnet_packets_forwarded_total"])
	plainJobs := float64(plain.verified)
	out := map[string]metric{
		"serve.submit_p50_ms":         {p50(spanSubmit, ms), "ms"},
		"serve.status_p50_ms":         {p50(spanStatus, ms), "ms"},
		"serve.result_p50_ms":         {p50(spanResult, ms), "ms"},
		"serve.polls_per_job":         {float64(len(durs[spanStatus])) / jobs, "count"},
		"serve.queue_wait_p50_ms":     {p50(spanQueue, ms), "ms"},
		"serve.queue_wait_p99_ms":     {p99(spanQueue, ms), "ms"},
		"serve.done_to_seen_p50_ms":   {p50(spanDoneToSeen, ms), "ms"},
		"store.fsyncs_per_job":        {float64(len(durs[spanFsync])) / jobs, "count"},
		"store.fsync_p50_us":          {p50(spanFsync, us), "us"},
		"store.fsync_p99_us":          {p99(spanFsync, us), "us"},
		"store.fsync_busy_share":      {sum(spanFsync) / wall, "ratio"},
		"store.bytes_written_per_job": {float64(counts[countBytes]) / jobs, "B"},
		"sched.exec_p50_ms":           {p50(spanExec, ms), "ms"},
		"sched.exec_p99_ms":           {p99(spanExec, ms), "ms"},
		"sched.exec_busy_share":       {sum(spanExec) / wall, "ratio"},
		"simnet.packets_per_job":      {packets / jobs, "count"},
		"simnet.ns_per_packet":        {ratio(sum(spanExec), packets), "ns"},
		"centrace.probes_per_job":     {float64(c["centrace_probes_total"]) / jobs, "count"},
		"centrace.retries_per_job":    {float64(c["centrace_retries_total"]) / jobs, "count"},
		"faults.drops_per_job":        {float64(c["faults_drops_total"]) / jobs, "count"},
		"cluster.pull_p50_ms":         {p50(spanPull, ms), "ms"},
		"cluster.lease_hit_ratio":     {ratio(float64(counts[countLeases]), float64(len(durs[spanPull]))), "ratio"},
		"cluster.complete_p50_ms":     {p50(spanComplete, ms), "ms"},
		"cluster.execs_per_job":       {float64(len(durs[spanExec])) / jobs, "count"},
		"cluster.steals_per_job":      {float64(c["censerved_cluster_steals_total"]) / jobs, "count"},
		"cluster.fetch_p50_ms":        {p50(spanFetch, ms), "ms"},
		"digest.us_per_job":           {sum(spanDigest) / us / jobs, "us"},
		"go.alloc_kb_per_job":         {float64(plain.allocated) / 1024 / plainJobs, "KB"},
		"go.gc_per_1k_jobs":           {float64(plain.gcs) * 1000 / plainJobs, "count"},
		"trace.overhead_ratio":        {rate(traced) / rate(plain), "ratio"},
	}
	self := selfTimes(spans)
	for _, name := range []string{spanJob, spanSubmit, spanStatus, spanResult, spanDigest, spanQueue, spanExec, spanDoneToSeen} {
		out["self."+name+"_ms_per_job"] = metric{float64(self[name]) / ms / jobs, "ms"}
	}
	for _, mi := range micros {
		out[mi.name] = metric{median(mi.samples), mi.unit}
		fmt.Printf("micro %-28s median %.6g %s, quartile spread %.3f of median, %d samples\n",
			mi.name, median(mi.samples), mi.unit, quartileSpread(mi.samples), len(mi.samples))
	}
	return out
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

type provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	StoreFS    string `json:"store_fs"`
	Network    string `json:"network"`
}

func provenanceOf(root, storeDir string) provenance {
	return provenance{
		GitSHA:     gitSHA(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		StoreFS:    fsType(storeDir),
		Network:    "loopback TCP within one process, not a real link",
	}
}

// gitSHA reads HEAD without running git.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + " unresolved)"
}

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext2/3/4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs magic %#x", st.Type)
}
