package cenfuzz

import (
	"bytes"
	"fmt"
	"time"

	"cendev/internal/blockpage"
	"cendev/internal/endpoint"
	"cendev/internal/httpgram"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/parallel"
	"cendev/internal/simnet"
	"cendev/internal/tlsgram"
	"cendev/internal/topology"
)

// Outcome classifies one fuzz measurement.
type Outcome int

// Measurement outcomes. The blocked outcomes follow the paper's
// conservative definition (§6.2): repeated packet drops, connection resets
// or failures, and known injected blockpages.
const (
	OutcomeOK Outcome = iota
	OutcomeBlockedDrop
	OutcomeBlockedRST
	OutcomeBlockedFIN
	OutcomeBlockedPage
)

// Blocked reports whether the outcome is any blocking class.
func (o Outcome) Blocked() bool { return o != OutcomeOK }

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeBlockedDrop:
		return "blocked-drop"
	case OutcomeBlockedRST:
		return "blocked-rst"
	case OutcomeBlockedFIN:
		return "blocked-fin"
	case OutcomeBlockedPage:
		return "blocked-page"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes a fuzzing run.
type Config struct {
	TestDomain    string
	ControlDomain string
	// Retries for timed-out measurements before accepting a drop verdict.
	Retries int
	// Workers is the number of parallel strategy workers for Run. Each
	// worker owns a private clone of the network, and every strategy is
	// measured from the same canonical post-baseline state, so results are
	// identical for every worker count. Values below 1 mean one worker.
	Workers int
	// Obs, when non-nil, receives measurement-outcome, retry, and
	// permutation-verdict counters. The recorded series are deterministic
	// for a given scenario and seed at any worker count.
	Obs *obs.Registry
	// Tracer, when non-nil, records run/strategy spans stamped with the
	// network's virtual clock.
	Tracer *obs.Tracer
	// Parent, when non-nil, is the span Run nests under (ignored without a
	// Tracer).
	Parent *obs.Span
}

func (c Config) withDefaults() Config {
	if c.Retries == 0 {
		c.Retries = 3
	}
	return c
}

// waitBlocked is the pause after a blocked measurement (§6.2: 120 s to
// avoid stateful blocking effects); waitOK the pause after an unblocked
// one.
const (
	waitBlocked = 120 * time.Second
	waitOK      = 3 * time.Second
)

// Fuzzer runs CenFuzz measurements from a client against one endpoint.
type Fuzzer struct {
	Net      *simnet.Network
	Client   *topology.Host
	Endpoint *topology.Host
	Config   Config
	// m holds the pre-resolved metric handles, shared with the per-worker
	// sub-fuzzers Run derives (all nil when Config.Obs is nil — the no-op
	// path). t counts into them between flushes; every sub-fuzzer has its
	// own, so strategy workers never share one.
	m fuzzerMetrics
	t fuzzerTally
}

// fuzzerMetrics are the fuzzing series, resolved once per Fuzzer.
type fuzzerMetrics struct {
	outcomes [5]*obs.Counter // cenfuzz_measurements_total{outcome}
	retries  *obs.Counter    // cenfuzz_retries_total
	perms    [4]*obs.Counter // cenfuzz_perms_total{verdict}, indexed like permVerdicts
}

// Permutation verdicts, indexing the cenfuzz_perms_total series.
const (
	permInvalid = iota
	permCircumvented
	permEvaded
	permNoEvasion
)

// permVerdicts are the cenfuzz_perms_total verdict labels.
var permVerdicts = [4]string{
	permInvalid: "invalid", permCircumvented: "circumvented",
	permEvaded: "evaded", permNoEvasion: "no-evasion",
}

// fuzzerTally is what one (sub-)fuzzer counts for fuzzerMetrics in plain
// integers between flushes.
type fuzzerTally struct {
	outcomes [5]int64
	retries  int64
	perms    [4]int64
}

// permDone accounts one permutation verdict.
func (t *fuzzerTally) permDone(pr PermResult) {
	switch {
	case !pr.Valid:
		t.perms[permInvalid]++
	case pr.Circumvented:
		t.perms[permCircumvented]++
	case pr.Evaded:
		t.perms[permEvaded]++
	default:
		t.perms[permNoEvasion]++
	}
}

// New returns a Fuzzer with defaulted configuration.
func New(net *simnet.Network, client, ep *topology.Host, cfg Config) *Fuzzer {
	f := &Fuzzer{Net: net, Client: client, Endpoint: ep, Config: cfg.withDefaults()}
	if r := f.Config.Obs; r != nil {
		f.m.retries = r.Counter("cenfuzz_retries_total")
		for o := OutcomeOK; o <= OutcomeBlockedPage; o++ {
			f.m.outcomes[o] = r.Counter("cenfuzz_measurements_total", obs.L("outcome", o.String()))
		}
		for i, v := range permVerdicts {
			f.m.perms[i] = r.Counter("cenfuzz_perms_total", obs.L("verdict", v))
		}
	}
	return f
}

// sub returns a fuzzer over n sharing f's configuration and metric
// handles, with tallies of its own.
func (f *Fuzzer) sub(n *simnet.Network) *Fuzzer {
	return &Fuzzer{Net: n, Client: f.Client, Endpoint: f.Endpoint, Config: f.Config, m: f.m}
}

// flushObs adds the fuzzer's tallies and its network's into the registry.
func (f *Fuzzer) flushObs() {
	for i := range f.t.outcomes {
		f.m.outcomes[i].Flush(&f.t.outcomes[i])
	}
	f.m.retries.Flush(&f.t.retries)
	for i := range f.t.perms {
		f.m.perms[i].Flush(&f.t.perms[i])
	}
	f.Net.FlushObs()
}

// Measurement is one raw request/response observation.
type Measurement struct {
	Outcome Outcome
	// HTTPStatus is the response status for HTTP measurements that got a
	// response (0 otherwise).
	HTTPStatus int
	// ServedContent is true when the response carried the canonical
	// content for the requested domain (HTTP 200) or a TLS Server Hello —
	// the circumvention criterion.
	ServedContent bool
	// Body is the raw response payload, when any.
	Body []byte
}

// measureOnce sends payload segments on a fresh connection and classifies
// the response without retrying. A single segment goes out with
// SendPayload, whose deliveries stay valid until the next send, so only
// the body the Measurement keeps is copied; multi-segment sends go
// through SendSegments, which copies every delivered packet.
func (f *Fuzzer) measureOnce(segments [][]byte, port uint16) Measurement {
	conn, err := f.Net.Dial(f.Client, f.Endpoint, port)
	if err != nil {
		return Measurement{Outcome: OutcomeBlockedDrop}
	}
	defer conn.Close()
	var ds []simnet.Delivery
	if len(segments) == 1 {
		ds = conn.SendPayload(segments[0], 64)
	} else {
		ds = conn.SendSegments(segments, 64)
	}
	m := Measurement{Outcome: OutcomeBlockedDrop} // silence = drop
	sawData := false
	for _, d := range ds {
		pkt := d.Packet
		if pkt.TCP == nil || pkt.IP.Src != f.Endpoint.Addr {
			continue
		}
		switch {
		case pkt.TCP.Flags&netem.TCPRst != 0:
			if !sawData {
				return Measurement{Outcome: OutcomeBlockedRST}
			}
		case len(pkt.Payload) > 0:
			sawData = true
			m = f.classifyData(pkt.Payload, port)
		case pkt.TCP.Flags&netem.TCPFin != 0 && !sawData:
			m = Measurement{Outcome: OutcomeBlockedFIN}
		}
	}
	m.Body = bytes.Clone(m.Body)
	return m
}

// classifyData interprets a payload-bearing response.
func (f *Fuzzer) classifyData(body []byte, port uint16) Measurement {
	if _, ok := blockpage.Match(body); ok {
		return Measurement{Outcome: OutcomeBlockedPage, Body: body}
	}
	m := Measurement{Outcome: OutcomeOK, Body: body}
	if port == 443 {
		_, m.ServedContent = endpoint.IsServerHello(body)
		return m
	}
	// HTTP: parse the status line.
	m.HTTPStatus = httpgram.ParseStatus(body)
	m.ServedContent = m.HTTPStatus == 200
	return m
}

// Measure runs one measurement with timeout retries and the post-wait,
// then flushes the fuzzer's metric tallies and its network's. It is
// exported for reuse by other measurement campaigns (e.g. the
// Geneva-style search baseline in internal/evolve).
func (f *Fuzzer) Measure(payload []byte, port uint16) Measurement {
	return f.MeasureSegments([][]byte{payload}, port)
}

// MeasureSegments is Measure for multi-segment sends (the segmentation
// extension strategy).
func (f *Fuzzer) MeasureSegments(segments [][]byte, port uint16) Measurement {
	defer f.flushObs()
	return f.measure(segments, port)
}

// measure is MeasureSegments without the flush: Run flushes once per
// baseline and once per strategy instead.
func (f *Fuzzer) measure(segments [][]byte, port uint16) Measurement {
	var m Measurement
	attempts := 0
	for attempt := 0; attempt <= f.Config.Retries; attempt++ {
		attempts++
		m = f.measureOnce(segments, port)
		if m.Outcome != OutcomeBlockedDrop {
			break
		}
		f.Net.Sleep(waitBlocked) // wait out stateful blocking before retrying
	}
	f.t.outcomes[m.Outcome]++
	f.t.retries += int64(attempts - 1)
	if m.Outcome.Blocked() {
		f.Net.Sleep(waitBlocked)
	} else {
		f.Net.Sleep(waitOK)
	}
	return m
}

// PermResult is the verdict for one permutation of one strategy.
type PermResult struct {
	Strategy string
	Desc     string
	Test     Measurement
	Control  Measurement
	// Valid means the verdict is interpretable: the control permutation
	// was not blocked (§6.2).
	Valid bool
	// Evaded ("successful") means the normal test request was blocked but
	// this permutation was not (§6.2).
	Evaded bool
	// Circumvented means the permutation evaded AND fetched the intended
	// resource correctly (§6: "the probe loads the intended resource").
	Circumvented bool
}

// StrategyResult aggregates one strategy's permutations.
type StrategyResult struct {
	Name     string
	Category string
	Proto    Proto
	Perms    []PermResult
}

// SuccessRate is the fraction of valid permutations that evaded.
func (s *StrategyResult) SuccessRate() float64 {
	valid, evaded := 0, 0
	for _, p := range s.Perms {
		if p.Valid {
			valid++
			if p.Evaded {
				evaded++
			}
		}
	}
	if valid == 0 {
		return 0
	}
	return float64(evaded) / float64(valid)
}

// CircumventionRate is the fraction of valid permutations that both evaded
// and fetched correct content.
func (s *StrategyResult) CircumventionRate() float64 {
	valid, circ := 0, 0
	for _, p := range s.Perms {
		if p.Valid {
			valid++
			if p.Circumvented {
				circ++
			}
		}
	}
	if valid == 0 {
		return 0
	}
	return float64(circ) / float64(valid)
}

// Result is a full CenFuzz run against one endpoint.
type Result struct {
	TestDomain    string
	ControlDomain string
	// NormalBlocked maps protocol → whether the canonical request for the
	// test domain was blocked. Strategies for protocols that are not
	// blocked at all yield no evasion signal.
	NormalBlocked map[Proto]bool
	Strategies    []StrategyResult
	// TotalMeasurements counts individual request/response measurements.
	TotalMeasurements int
}

// EvadedStrategies lists the names of strategies whose evasion rate
// exceeds the threshold.
func (r *Result) EvadedStrategies(threshold float64) []string {
	var out []string
	for i := range r.Strategies {
		if r.Strategies[i].SuccessRate() > threshold {
			out = append(out, r.Strategies[i].Name)
		}
	}
	return out
}

// Strategy returns the named strategy result, or nil.
func (r *Result) Strategy(name string) *StrategyResult {
	for i := range r.Strategies {
		if r.Strategies[i].Name == name {
			return &r.Strategies[i]
		}
	}
	return nil
}

// Run executes the given strategies (nil = the full Table 2 catalog)
// against the endpoint: first a fresh Normal baseline per protocol for the
// test domain, then, for each strategy, each permutation for the control
// domain and the test domain (§6.2).
//
// Strategies fan out across Config.Workers parallel workers, each owning a
// private clone of the network (simnet.ForEachClone). Every strategy is
// measured from the same canonical post-baseline state (same virtual
// clock, reset device flow state and port sequence, per-strategy derived
// fault seed), so the result bytes are identical at every worker count and
// f.Net is never mutated mid-fan-out — its clock ends at the latest
// strategy's virtual end time.
func (f *Fuzzer) Run(strategies []Strategy) *Result {
	if strategies == nil {
		strategies = Strategies()
	}
	res := &Result{
		TestDomain:    f.Config.TestDomain,
		ControlDomain: f.Config.ControlDomain,
		NormalBlocked: make(map[Proto]bool),
	}

	var root *obs.Span
	if f.Config.Parent != nil {
		root = f.Config.Parent.StartChild("cenfuzz.run", f.Net.Now(), obs.L("test", f.Config.TestDomain))
	} else {
		root = f.Config.Tracer.Start("cenfuzz.run", f.Net.Now(), obs.L("test", f.Config.TestDomain))
	}

	// Normal baselines per protocol, on a clone carrying the network's
	// current state — the canonical prefix every strategy measurement
	// descends from.
	baseNet := f.Net.Clone()
	baseFuzzer := f.sub(baseNet)
	baseline := map[Proto]Measurement{}
	for _, proto := range []Proto{ProtoHTTP, ProtoTLS} {
		normal := normalPayload(proto, f.Config.TestDomain)
		m := baseFuzzer.measure([][]byte{normal}, proto.Port())
		baseline[proto] = m
		res.NormalBlocked[proto] = m.Outcome.Blocked()
		res.TotalMeasurements++
	}
	baseFuzzer.flushObs()
	f.Net.Sleep(baseNet.Now() - f.Net.Now())

	res.Strategies = make([]StrategyResult, len(strategies))
	label := func(i int) string { return "cenfuzz|" + strategies[i].Name }
	simnet.ForEachClone(f.Net, len(strategies), f.Config.Workers, parallel.Options{Pool: "cenfuzz.strategies", Obs: f.Config.Obs}, label, func(n *simnet.Network, i int) {
		st := strategies[i]
		span := root.StartChild("cenfuzz.strategy", n.Now(), obs.L("strategy", st.Name))
		sf := f.sub(n)
		defer sf.flushObs()
		sr := StrategyResult{Name: st.Name, Category: st.Category, Proto: st.Proto}
		normalBlocked := baseline[st.Proto].Outcome.Blocked()
		perms := st.Perms()
		if len(perms) > 0 {
			sr.Perms = make([]PermResult, 0, len(perms))
		}
		for _, perm := range perms {
			pr := PermResult{Strategy: st.Name, Desc: perm.Desc}
			pr.Control = sf.measurePerm(perm, f.Config.ControlDomain, st.Proto.Port())
			pr.Test = sf.measurePerm(perm, f.Config.TestDomain, st.Proto.Port())
			pr.Valid = !pr.Control.Outcome.Blocked()
			if pr.Valid && normalBlocked && !pr.Test.Outcome.Blocked() {
				pr.Evaded = true
				pr.Circumvented = pr.Test.ServedContent
			}
			sf.t.permDone(pr)
			sr.Perms = append(sr.Perms, pr)
		}
		res.Strategies[i] = sr
		span.End(n.Now())
	})
	for i := range res.Strategies {
		res.TotalMeasurements += 2 * len(res.Strategies[i].Perms) // control and test
	}
	root.End(f.Net.Now())
	return res
}

// measurePerm measures one permutation for one domain, honoring segmented
// permutations.
func (f *Fuzzer) measurePerm(perm Permutation, domain string, port uint16) Measurement {
	if perm.Segments != nil {
		return f.measure(perm.Segments(domain), port)
	}
	return f.measure([][]byte{perm.Payload(domain)}, port)
}

// normalPayload renders the canonical request for a protocol and domain.
func normalPayload(p Proto, domain string) []byte {
	if p == ProtoHTTP {
		return httpgram.NewRequest(domain).Render()
	}
	return tlsgram.NewClientHello(domain).Serialize()
}
