package centrace

import (
	"fmt"
	"strconv"
	"sync"

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

// Run measures every target as Each does and returns the results in
// target order regardless of worker count or scheduling.
func (c *Campaign) Run(targets []Target) []CampaignResult {
	out := make([]CampaignResult, len(targets))
	c.Each(targets, func(i int, cr CampaignResult) { out[i] = cr })
	return out
}

// Each measures every target across a pool of workers, each owning a
// private clone of the network and one prober it reuses from target to
// target, and calls yield(i, cr) once per target with targets[i]'s final
// result: restored from the journal, or from the last pass that measured
// it. yield runs under the campaign's lock, so its calls never overlap
// and it needs no lock of its own; they come in resolution order, which
// depends on scheduling, so consumers place results by i. Each keeps
// nothing of a result once yield returns, and a Journal only writes it to
// its log, so a campaign's memory grows with its workers, not its targets.
//
// Determinism: each pass is one simnet.ForEachClone, so every target is
// measured from the same canonical state — the pass-start virtual clock,
// a reset port sequence, freshly cleared device flow state (stateful flow
// tracking from one target's probes must not contaminate the next — the
// campaign analog of the §4.1 inter-probe wait), and a fault engine
// re-seeded per (target, pass) — so the result for a target depends only
// on the target and the pass, never on which worker ran it or what ran
// before it on that worker's clone or prober.
//
// Each target runs behind a panic barrier: a target that blows up yields
// an error-bearing CampaignResult and the remaining targets still run.
// Failed targets are retried in RetryFailedPasses extra passes, with each
// pass starting at the latest virtual end time of the previous pass (the
// batch analog of serial time passing — transient faults get a chance to
// clear); a failure that a later pass re-measures is not yielded.
// Journaled targets are restored instead of re-measured. After the run,
// Net's clock stands at the campaign's latest virtual end time.
func (c *Campaign) Each(targets []Target, yield func(i int, cr CampaignResult)) {
	done := make([]bool, len(targets))
	cm := newCampaignMetrics(c.Base.Obs)
	pm := newProberMetrics(c.Base.Obs)
	var root *obs.Span
	if c.Base.Parent != nil {
		root = c.Base.Parent.StartChild("centrace.campaign", c.Net.Now())
	} else {
		root = c.Base.Tracer.Start("centrace.campaign", c.Net.Now())
	}
	root.SetAttr("targets", strconv.Itoa(len(targets)))
	var mu sync.Mutex // guards done and probers, and serializes yield
	resolveLocked := func(i int, cr CampaignResult, fromJournal bool) {
		done[i] = true
		cm.record(cr)
		if c.Journal != nil && !fromJournal {
			c.Journal.Record(cr)
		}
		yield(i, cr)
	}

	if c.Journal != nil {
		for i, tgt := range targets {
			if cr, ok := c.Journal.Lookup(tgt); ok {
				resolveLocked(i, cr, true)
			}
		}
	}

	passes := c.RetryFailedPasses
	if passes < 0 {
		passes = 0
	}
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
		passSpan := root.StartChild("centrace.pass", c.Net.Now(), obs.L("pass", strconv.Itoa(pass)))
		label := func(k int) string { return fmt.Sprintf("%s#%d", targets[pending[k]].Key(), pass) }
		// One prober per worker clone: a clone serves one worker, which
		// measures one target at a time on it.
		probers := make(map[*simnet.Network]*Prober)
		simnet.ForEachClone(c.Net, len(pending), c.Workers, parallel.Options{Pool: "centrace.campaign", Obs: c.Base.Obs}, label, func(n *simnet.Network, k int) {
			i := pending[k]
			mu.Lock()
			p := probers[n]
			if p == nil {
				p = newProber(n, c.Client, pm)
				probers[n] = p
			}
			mu.Unlock()
			cr := c.measureOn(p, targets[i], passSpan)
			if cr.Failed() && pass < passes {
				return // re-measured next pass
			}
			mu.Lock()
			defer mu.Unlock()
			resolveLocked(i, cr, false)
		})
		passSpan.End(c.Net.Now())
	}
	root.End(c.Net.Now())
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

// measureOn runs one target with a worker's prober, whose network clone is
// already rewound to the canonical pass state, behind the panic barrier.
func (c *Campaign) measureOn(p *Prober, tgt Target, passSpan *obs.Span) (cr CampaignResult) {
	n := p.Net
	cr.Target = tgt
	span := passSpan.StartChild("centrace.target", n.Now(), obs.L("target", tgt.Key()))
	defer func() {
		if r := recover(); r != nil {
			cr.Result = nil
			cr.Err = fmt.Errorf("centrace: target %s panicked: %v", tgt.Key(), r)
			span.SetAttr("panic", "true")
		}
		span.End(n.Now())
	}()
	cfg := c.Base
	cfg.TestDomain = tgt.Domain
	cfg.Protocol = tgt.Protocol
	cfg.Parent = span
	p.retarget(tgt.Endpoint, cfg)
	cr.Result = p.Run()
	return cr
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
