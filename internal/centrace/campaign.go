package centrace

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"cendev/internal/faults"
	"cendev/internal/obs"
	"cendev/internal/parallel"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// Target is one endpoint × domain × protocol measurement in a campaign.
type Target struct {
	Endpoint *topology.Host
	Domain   string
	Protocol Protocol
	// Label is free-form caller context (country, ASN, ...) carried
	// through to the result.
	Label string
}

// Key is the target's stable identity inside a campaign: endpoint ×
// domain × protocol × label. The journal uses it to recognize already
// measured targets across resumed runs.
func (t Target) Key() string {
	ep := "?"
	if t.Endpoint != nil {
		ep = t.Endpoint.ID
	}
	return fmt.Sprintf("%s|%s|%s|%s", ep, t.Domain, t.Protocol, t.Label)
}

// CampaignResult pairs a target with its measurement.
type CampaignResult struct {
	Target Target
	Result *Result
	// Err records a per-target failure (e.g. a recovered panic). A target
	// with a non-nil Err may carry a nil Result.
	Err error
}

// Failed reports whether the target needs re-measurement: it errored, or
// its control traceroute never reached the endpoint.
func (r CampaignResult) Failed() bool {
	return r.Err != nil || r.Result == nil || !r.Result.Valid
}

// Campaign runs CenTrace against many targets from one vantage point —
// the §4.2 collection pattern ("We perform measurements to multiple
// endpoints concurrently to speed up our data collection"; the simulator
// is synchronous, so "concurrently" here means batched).
type Campaign struct {
	Net    *simnet.Network
	Client *topology.Host
	// Base holds the shared configuration; TestDomain and Protocol are
	// overridden per target.
	Base Config
	// Progress, when non-nil, is called after each target resolves
	// (measured, restored from the journal, or failed for the last time).
	Progress func(done, total int, r CampaignResult)
	// RetryFailedPasses is how many extra passes re-measure targets that
	// failed (panicked, errored, or never reached the endpoint). Transient
	// outages — exactly what the fault engine injects — often clear by the
	// time a later pass comes around.
	RetryFailedPasses int
	// Journal, when non-nil, checkpoints every resolved target and lets an
	// interrupted campaign resume without re-measuring.
	Journal *Journal
	// Workers is the number of parallel measurement workers. Each worker
	// owns a private clone of Net, so targets run concurrently without
	// sharing device flow state. Values below 1 mean one worker. Results
	// are identical for every worker count: each target is measured from
	// the same canonical state regardless of which worker claims it.
	Workers int
}

// Run measures every target across a pool of workers, each owning a
// private clone of the network, and returns results in target order
// regardless of worker count or scheduling.
//
// Determinism: every target is measured from the same canonical state —
// the pass-start virtual clock, a reset port sequence, freshly cleared
// device flow state (stateful flow tracking from one target's probes must
// not contaminate the next — the campaign analog of the §4.1 inter-probe
// wait), and a fault engine re-seeded per (target, pass) — so the result
// for a target depends only on the target and the pass, never on which
// worker ran it or what ran before it on that worker's clone.
//
// Each target runs behind a panic barrier: a target that blows up yields
// an error-bearing CampaignResult and the remaining targets still run.
// Failed targets are retried in RetryFailedPasses extra passes, with each
// pass starting at the latest virtual end time of the previous pass (the
// batch analog of serial time passing — transient faults get a chance to
// clear). Journaled targets are restored instead of re-measured. After the
// run, Net's clock stands at the campaign's latest virtual end time.
func (c *Campaign) Run(targets []Target) []CampaignResult {
	out := make([]CampaignResult, len(targets))
	done := make([]bool, len(targets))
	completed := 0
	cm := newCampaignMetrics(c.Base.Obs)
	var root *obs.Span
	if c.Base.Parent != nil {
		root = c.Base.Parent.StartChild("centrace.campaign", c.Net.Now())
	} else {
		root = c.Base.Tracer.Start("centrace.campaign", c.Net.Now())
	}
	root.SetAttr("targets", strconv.Itoa(len(targets)))
	var mu sync.Mutex // guards out/done/completed and serializes Progress
	resolveLocked := func(i int, cr CampaignResult, fromJournal bool) {
		out[i] = cr
		done[i] = true
		completed++
		cm.record(cr)
		if c.Journal != nil && !fromJournal {
			c.Journal.Record(cr)
		}
		if c.Progress != nil {
			c.Progress(completed, len(targets), cr)
		}
	}

	if c.Journal != nil {
		for i, tgt := range targets {
			if cr, ok := c.Journal.Lookup(tgt); ok {
				resolveLocked(i, cr, true)
			}
		}
	}

	workers := c.Workers
	if workers < 1 {
		workers = 1
	}

	// Canonical origin state every measurement rewinds to.
	baseClock := c.Net.Now()
	basePort := c.Net.PortSeq()
	baseFaults := c.Net.Faults()

	// Worker clones are created serially before the fan-out (Clone freezes
	// the shared geo registry); a single worker still runs on a clone so
	// every worker count follows the same protocol and produces the same
	// bytes.
	nets := make([]*simnet.Network, workers)
	for w := range nets {
		nets[w] = c.Net.Clone()
	}

	passes := c.RetryFailedPasses
	if passes < 0 {
		passes = 0
	}
	startClock := baseClock
	maxEnd := baseClock
	for pass := 0; pass <= passes; pass++ {
		var pending []int
		for i := range targets {
			if !done[i] {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			break
		}
		passStart := startClock
		passEnd := passStart
		passSpan := root.StartChild("centrace.pass", passStart, obs.L("pass", strconv.Itoa(pass)))
		parallel.ForEachOpt(len(pending), workers, parallel.Options{Pool: "centrace.campaign", Obs: c.Base.Obs}, func(w, k int) {
			i := pending[k]
			cr, end := c.measureOn(nets[w], baseFaults, targets[i], pass, passStart, basePort, passSpan)
			mu.Lock()
			defer mu.Unlock()
			if end > passEnd {
				passEnd = end
			}
			if cr.Failed() && pass < passes {
				out[i] = cr // provisional; re-measured next pass
				return
			}
			resolveLocked(i, cr, false)
		})
		passSpan.End(passEnd)
		startClock = passEnd
		if passEnd > maxEnd {
			maxEnd = passEnd
		}
	}
	// Every measurement flushed its tallies as it ended; flush the worker
	// clones once more as they are dropped.
	for _, n := range nets {
		n.FlushObs()
	}
	// Leave the campaign network's clock where the longest measurement
	// ended, so composed experiments keep a monotonic virtual timeline.
	if d := maxEnd - c.Net.Now(); d > 0 {
		c.Net.Sleep(d)
	}
	root.End(maxEnd)
	return out
}

// campaignMetrics are the target-level series a campaign records as each
// target resolves. The zero value (nil registry) is a no-op.
type campaignMetrics struct {
	verdicts   map[string]*obs.Counter // centrace_targets_total{verdict}
	retries    *obs.Histogram          // centrace_target_retries
	confidence *obs.Histogram          // centrace_confidence
}

func newCampaignMetrics(r *obs.Registry) campaignMetrics {
	var m campaignMetrics
	if r == nil {
		return m
	}
	m.verdicts = make(map[string]*obs.Counter, 4)
	for _, v := range []string{"blocked", "clean", "degraded", "failed"} {
		m.verdicts[v] = r.Counter("centrace_targets_total", obs.L("verdict", v))
	}
	m.retries = r.Histogram("centrace_target_retries", obs.CountBuckets)
	m.confidence = r.Histogram("centrace_confidence", obs.ScoreBuckets)
	return m
}

// record accounts one finally-resolved target (provisional failures that a
// later pass re-measures are not counted).
func (m campaignMetrics) record(cr CampaignResult) {
	if m.verdicts == nil {
		return
	}
	switch res := cr.Result; {
	case cr.Failed():
		m.verdicts["failed"].Inc()
	case res.Degraded:
		m.verdicts["degraded"].Inc()
	case res.Blocked:
		m.verdicts["blocked"].Inc()
	default:
		m.verdicts["clean"].Inc()
	}
	if res := cr.Result; res != nil {
		retries := 0
		for _, a := range []*Aggregate{res.Control, res.Test} {
			if a == nil {
				continue
			}
			for i := range a.Traces {
				retries += a.Traces[i].Retries
			}
		}
		m.retries.Observe(float64(retries))
		m.confidence.Observe(res.Confidence.Score)
	}
}

// measureOn runs one target on a worker's private network clone behind the
// panic barrier, returning the result and the virtual time at which the
// measurement ended. The clone is rewound to the canonical pass state
// first; when the campaign network carries a fault engine, the clone gets
// an independent engine seeded from (base seed, target key, pass) so fault
// realizations are per-target deterministic.
func (c *Campaign) measureOn(n *simnet.Network, baseFaults *faults.Engine, tgt Target, pass int, startClock time.Duration, basePort uint16, passSpan *obs.Span) (cr CampaignResult, end time.Duration) {
	cr.Target = tgt
	span := passSpan.StartChild("centrace.target", startClock, obs.L("target", tgt.Key()))
	defer func() {
		if r := recover(); r != nil {
			cr.Result = nil
			cr.Err = fmt.Errorf("centrace: target %s panicked: %v", tgt.Key(), r)
			end = n.Now()
			span.SetAttr("panic", "true")
		}
		span.End(end)
	}()
	n.BeginMeasurement(startClock, basePort)
	if baseFaults != nil {
		seed := faults.DeriveSeed(baseFaults.Seed(), fmt.Sprintf("%s#%d", tgt.Key(), pass))
		n.SetFaults(baseFaults.CloneSeeded(seed))
	}
	cfg := c.Base
	cfg.TestDomain = tgt.Domain
	cfg.Protocol = tgt.Protocol
	cfg.Parent = span
	cr.Result = New(n, c.Client, tgt.Endpoint, cfg).Run()
	return cr, n.Now()
}

// Blocked filters a campaign's results to the blocked ones. Failed targets
// (nil Result) are skipped.
func Blocked(results []CampaignResult) []CampaignResult {
	var out []CampaignResult
	for _, r := range results {
		if r.Result != nil && r.Result.Blocked {
			out = append(out, r)
		}
	}
	return out
}

// BlockingHops groups blocked results by blocking-hop address string,
// the grouping CenProbe's target discovery uses (§5.2). Failed targets and
// blocked results without a valid blocking-hop address (degraded
// localizations) are excluded.
func BlockingHops(results []CampaignResult) map[string][]CampaignResult {
	out := map[string][]CampaignResult{}
	for _, r := range results {
		if r.Result == nil || !r.Result.Blocked || !r.Result.BlockingHop.Addr.IsValid() {
			continue
		}
		key := r.Result.BlockingHop.Addr.String()
		out[key] = append(out[key], r)
	}
	return out
}
