package experiments

import (
	"fmt"
	"net/netip"
	"sort"

	"cendev/internal/cenfuzz"
	"cendev/internal/cenprobe"
	"cendev/internal/centrace"
	"cendev/internal/features"
	"cendev/internal/obs"
	"cendev/internal/parallel"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// TraceRecord is one CenTrace measurement with its context.
type TraceRecord struct {
	Country   string
	InCountry bool
	Endpoint  EndpointInfo
	Protocol  centrace.Protocol
	Domain    string
	Result    *centrace.Result
}

// Key identifies the endpoint+protocol+domain of a record.
func (r *TraceRecord) Key() string {
	return fmt.Sprintf("%s/%s/%s", r.Endpoint.Host.ID, r.Protocol, r.Domain)
}

// CorpusConfig bounds the corpus size.
type CorpusConfig struct {
	// Repetitions per traceroute (default 5; the paper uses 11 — the
	// simulated paths have less variance, see EXPERIMENTS.md).
	Repetitions int
	// MaxFuzzEndpointsPerCountry caps how many distinct blocking devices
	// per country get the full CenFuzz treatment, with up to two endpoints
	// fuzzed per device (default 12).
	MaxFuzzEndpointsPerCountry int
	// SkipFuzz skips the CenFuzz phase (for trace-only experiments).
	SkipFuzz bool
	// Workers is the parallel worker count for the trace, probe, and fuzz
	// phases. Each trace/fuzz worker owns a private clone of the scenario
	// network and every measurement starts from the same canonical phase
	// state, so the corpus is identical at every worker count. Values
	// below 1 mean one worker.
	Workers int
	// Obs, when non-nil, is installed on the scenario network and threaded
	// through every measurement phase. The deterministic series are
	// identical at any worker count.
	Obs *obs.Registry
	// Tracer, when non-nil, records per-phase and per-measurement spans
	// stamped with the scenario's virtual clock.
	Tracer *obs.Tracer
}

func (c CorpusConfig) withDefaults() CorpusConfig {
	if c.Repetitions == 0 {
		c.Repetitions = 5
	}
	if c.MaxFuzzEndpointsPerCountry == 0 {
		c.MaxFuzzEndpointsPerCountry = 12
	}
	return c
}

// inCountryEndpoints caps how many endpoints each in-country client
// probes.
const inCountryEndpoints = 3

// Corpus holds every measurement of one full study run: the raw material
// for all tables and figures.
type Corpus struct {
	Scenario *Scenario
	Config   CorpusConfig
	Traces   []TraceRecord
	// Fuzz maps endpoint host ID → CenFuzz result (remote measurements).
	Fuzz map[string]*cenfuzz.Result
	// FuzzTrace maps endpoint host ID → the blocked trace record the fuzz
	// run was based on, keeping device attribution consistent.
	FuzzTrace map[string]TraceRecord
	// InCountryFuzz maps country → CenFuzz result against the test
	// domains' origin servers (circumvention measurements).
	InCountryFuzz map[string]*cenfuzz.Result
	// PotentialDeviceIPs are the control-trace terminating-hop addresses
	// of blocked in-path measurements (§5.2).
	PotentialDeviceIPs []netip.Addr
	// Probes maps device IP → banner grab result.
	Probes map[netip.Addr]*cenprobe.Result
	// root is the corpus-wide trace span phases nest under (nil untraced).
	root *obs.Span
}

// BuildCorpus creates the world and runs the full measurement study.
func BuildCorpus(cfg CorpusConfig) *Corpus {
	cfg = cfg.withDefaults()
	s := BuildWorld()
	if cfg.Obs != nil {
		s.Net.SetObs(cfg.Obs)
	}
	c := &Corpus{
		Scenario:      s,
		Config:        cfg,
		Fuzz:          map[string]*cenfuzz.Result{},
		FuzzTrace:     map[string]TraceRecord{},
		InCountryFuzz: map[string]*cenfuzz.Result{},
		Probes:        map[netip.Addr]*cenprobe.Result{},
	}
	c.root = cfg.Tracer.Start("corpus.build", s.Net.Now())
	c.runTraces()
	c.collectDeviceIPs()
	c.runProbes()
	if !cfg.SkipFuzz {
		c.runFuzz()
	}
	c.root.End(s.Net.Now())
	return c
}

// traceJob is one CenTrace measurement in the corpus work list: the record
// template plus the vantage point it is measured from.
type traceJob struct {
	client *topology.Host
	rec    TraceRecord // Result filled in by the worker
}

// runTraces performs remote CenTraces from the US client to every endpoint
// for every (domain, protocol), plus in-country CenTraces from each
// vantage point to a subset of same-country endpoints. The work list fans
// out across Config.Workers workers, each owning a private clone of the
// scenario network; every trace starts from the same canonical phase state
// (clock, port sequence, per-trace derived fault seed), so c.Traces comes
// out in enumeration order with identical bytes at every worker count.
func (c *Corpus) runTraces() {
	s := c.Scenario
	var jobs []traceJob
	for _, ep := range s.Endpoints {
		for _, domain := range TestDomainsFor(ep.Country) {
			for _, proto := range []centrace.Protocol{centrace.HTTP, centrace.HTTPS} {
				jobs = append(jobs, traceJob{client: s.USClient, rec: TraceRecord{
					Country: ep.Country, Endpoint: ep,
					Protocol: proto, Domain: domain,
				}})
			}
		}
	}
	for _, country := range Countries {
		client, ok := s.InCountryClients[country]
		if !ok {
			continue
		}
		// In-country vantage points target unguarded infrastructure
		// (host-side firewalls are not the censorship under study, §4.3).
		var eps []EndpointInfo
		for _, e := range s.EndpointsIn(country) {
			if !s.Guarded[e.Host.ID] {
				eps = append(eps, e)
			}
			if len(eps) == inCountryEndpoints {
				break
			}
		}
		for _, ep := range eps {
			for _, domain := range TestDomainsFor(country) {
				for _, proto := range []centrace.Protocol{centrace.HTTP, centrace.HTTPS} {
					jobs = append(jobs, traceJob{client: client, rec: TraceRecord{
						Country: country, InCountry: true, Endpoint: ep,
						Protocol: proto, Domain: domain,
					}})
				}
			}
		}
	}

	phase := c.root.StartChild("corpus.traces", s.Net.Now())
	label := func(i int) string { return "trace|" + jobs[i].client.ID + "|" + jobs[i].rec.Key() }
	simnet.ForEachClone(s.Net, len(jobs), c.Config.Workers, parallel.Options{Pool: "corpus.traces", Obs: c.Config.Obs}, label, func(n *simnet.Network, i int) {
		j := &jobs[i]
		// The job span's key attribute is unique per job (endpoint ×
		// protocol × domain × client), which keeps sibling ordering — and
		// so the serialized trace — canonical even though every job starts
		// at the same canonical phase clock.
		span := phase.StartChild("corpus.trace", n.Now(), obs.L("job", j.client.ID+"|"+j.rec.Key()))
		j.rec.Result = centrace.New(n, j.client, j.rec.Endpoint.Host, centrace.Config{
			ControlDomain: ControlDomain,
			TestDomain:    j.rec.Domain,
			Protocol:      j.rec.Protocol,
			Repetitions:   c.Config.Repetitions,
			Obs:           c.Config.Obs,
			Tracer:        c.Config.Tracer,
			Parent:        span,
		}).Run()
		span.End(n.Now())
	})
	for _, j := range jobs {
		c.Traces = append(c.Traces, j.rec)
	}
	phase.End(s.Net.Now())
}

// collectDeviceIPs gathers the potential device addresses: the blocking
// hops of blocked, in-path measurements (§5.2: "These are the IP addresses
// of the terminating hop in our Control Domain CenTrace measurement").
func (c *Corpus) collectDeviceIPs() {
	seen := map[netip.Addr]bool{}
	for _, tr := range c.Traces {
		r := tr.Result
		if !r.Blocked || r.Placement != centrace.PlacementInPath {
			continue
		}
		addr := r.BlockingHop.Addr
		if addr.IsValid() && !seen[addr] {
			seen[addr] = true
			c.PotentialDeviceIPs = append(c.PotentialDeviceIPs, addr)
		}
	}
	sort.Slice(c.PotentialDeviceIPs, func(i, j int) bool {
		return c.PotentialDeviceIPs[i].Less(c.PotentialDeviceIPs[j])
	})
}

// runProbes banner-grabs every potential device IP. Probes are pure reads
// against the device registry, so workers share the scenario network.
func (c *Corpus) runProbes() {
	phase := c.root.StartChild("corpus.probes", c.Scenario.Net.Now())
	for _, r := range cenprobe.ProbeAllOpt(c.Scenario.Net, c.PotentialDeviceIPs, cenprobe.Opts{
		Workers: c.Config.Workers,
		Tracer:  c.Config.Tracer,
		Parent:  phase,
	}) {
		c.Probes[r.Addr] = r
	}
	phase.End(c.Scenario.Net.Now())
}

// fuzzJob is one CenFuzz run in the corpus work list.
type fuzzJob struct {
	label  string // seed-derivation label, unique per job
	client *topology.Host
	host   *topology.Host
	domain string
}

// runFuzzJobs executes CenFuzz runs across the worker pool, each on a
// private clone rewound to the same canonical phase state, and returns
// results in job order (identical at every worker count). The inner
// fuzzers run their strategies serially — the corpus parallelizes across
// endpoints instead.
func (c *Corpus) runFuzzJobs(jobs []fuzzJob) []*cenfuzz.Result {
	s := c.Scenario
	phase := c.root.StartChild("corpus.fuzz", s.Net.Now())
	results := make([]*cenfuzz.Result, len(jobs))
	label := func(i int) string { return "fuzz|" + jobs[i].label }
	simnet.ForEachClone(s.Net, len(jobs), c.Config.Workers, parallel.Options{Pool: "corpus.fuzz", Obs: c.Config.Obs}, label, func(n *simnet.Network, i int) {
		j := jobs[i]
		// Unique job label keeps sibling span ordering canonical (all jobs
		// start at the same canonical phase clock).
		span := phase.StartChild("corpus.fuzzjob", n.Now(), obs.L("job", j.label))
		fz := cenfuzz.New(n, j.client, j.host, cenfuzz.Config{
			TestDomain:    j.domain,
			ControlDomain: ControlDomain,
			Obs:           c.Config.Obs,
			Tracer:        c.Config.Tracer,
			Parent:        span,
		})
		results[i] = fz.Run(nil)
		span.End(n.Now())
	})
	phase.End(s.Net.Now())
	return results
}

// runFuzz fuzzes blocked endpoints — one per distinct blocking hop, so
// every deployed device gets fuzzed at least once — capped per country,
// plus the in-country circumvention runs against the origin servers.
func (c *Corpus) runFuzz() {
	s := c.Scenario
	// Pick blocked traces per distinct blocking-hop address, preferring
	// path blocking over endpoint-side ("At E") guards, and — for path
	// devices — preferring unguarded endpoints so exactly one device
	// filters the fuzzed flow.
	type pick struct{ tr TraceRecord }
	const endpointsPerHop = 2
	chosen := map[string][]pick{} // blocking hop → traces
	for _, preferPath := range []bool{true, false} {
		for _, tr := range c.Traces {
			if tr.InCountry || !tr.Result.Blocked {
				continue
			}
			isPath := tr.Result.Location != centrace.LocAtE
			if isPath != preferPath {
				continue
			}
			if isPath && s.Guarded[tr.Endpoint.Host.ID] {
				continue // keep the guard out of the device's fingerprint
			}
			key := tr.Result.BlockingHop.Addr.String()
			if !tr.Result.BlockingHop.Addr.IsValid() {
				key = "hop-ttl-" + fmt.Sprint(tr.Result.DeviceTTL) + "-" + tr.Country
			}
			already := false
			for _, p := range chosen[key] {
				if p.tr.Endpoint.Host.ID == tr.Endpoint.Host.ID {
					already = true
					break
				}
			}
			if !already && len(chosen[key]) < endpointsPerHop {
				chosen[key] = append(chosen[key], pick{tr})
			}
		}
	}
	// The per-country cap counts distinct blocking hops (devices), so
	// vendor coverage survives even when one device blocks many endpoints.
	// Path-blocking devices take priority over endpoint-side guards.
	var hopKeys []string
	for key := range chosen {
		hopKeys = append(hopKeys, key)
	}
	isAtE := func(key string) bool {
		return chosen[key][0].tr.Result.Location == centrace.LocAtE
	}
	sort.Slice(hopKeys, func(i, j int) bool {
		a, b := hopKeys[i], hopKeys[j]
		if isAtE(a) != isAtE(b) {
			return !isAtE(a)
		}
		return a < b
	})
	perCountry := map[string]int{}
	var jobs []fuzzJob
	var jobTraces []TraceRecord
	picked := map[string]bool{}
	for _, key := range hopKeys {
		country := chosen[key][0].tr.Country
		if perCountry[country] >= c.Config.MaxFuzzEndpointsPerCountry {
			continue
		}
		perCountry[country]++
		for _, p := range chosen[key] {
			tr := p.tr
			id := tr.Endpoint.Host.ID
			if picked[id] {
				continue
			}
			picked[id] = true
			jobs = append(jobs, fuzzJob{
				label:  "remote|" + id + "|" + tr.Domain,
				client: s.USClient,
				host:   tr.Endpoint.Host,
				domain: tr.Domain,
			})
			jobTraces = append(jobTraces, tr)
		}
	}
	for i, res := range c.runFuzzJobs(jobs) {
		id := jobTraces[i].Endpoint.Host.ID
		c.Fuzz[id] = res
		c.FuzzTrace[id] = jobTraces[i]
	}
	// In-country circumvention runs: client → the blocked domain's origin.
	var icJobs []fuzzJob
	var icCountries []string
	for _, country := range []string{"AZ", "KZ"} {
		client, ok := s.InCountryClients[country]
		if !ok {
			continue
		}
		domain := TestDomainsFor(country)[1] // the country-specific domain
		origin := s.Origins[domain]
		if origin == nil {
			continue
		}
		icJobs = append(icJobs, fuzzJob{
			label:  "incountry|" + country + "|" + domain,
			client: client,
			host:   origin,
			domain: domain,
		})
		icCountries = append(icCountries, country)
	}
	for i, res := range c.runFuzzJobs(icJobs) {
		c.InCountryFuzz[icCountries[i]] = res
	}
}

// BlockedTraces returns the blocked remote trace records for a country
// ("" = all).
func (c *Corpus) BlockedTraces(country string) []TraceRecord {
	var out []TraceRecord
	for _, tr := range c.Traces {
		if tr.InCountry || !tr.Result.Blocked {
			continue
		}
		if country == "" || tr.Country == country {
			out = append(out, tr)
		}
	}
	return out
}

// Observations assembles the per-endpoint feature observations for the
// clustering pipeline: one observation per fuzzed blocked endpoint, using
// the same trace record the fuzz run was based on so the device
// attribution is consistent.
func (c *Corpus) Observations() []*features.Observation {
	var ids []string
	for id := range c.Fuzz {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*features.Observation
	for _, id := range ids {
		tr, ok := c.FuzzTrace[id]
		if !ok {
			continue
		}
		obs := &features.Observation{
			EndpointID: id,
			Country:    tr.Country,
			ASN:        tr.Endpoint.ASN,
			Trace:      tr.Result,
			Fuzz:       c.Fuzz[id],
		}
		if p, ok := c.Probes[tr.Result.BlockingHop.Addr]; ok {
			obs.Probe = p
		}
		out = append(out, obs)
	}
	return out
}
