// Package centrace implements CenTrace, the censorship traceroute (§4 of
// the paper): TTL-limited application-layer probes for a Control Domain and
// a Test Domain that build the network path to an endpoint and locate the
// hop at which a censorship device interferes, classify the device as
// in-path or on-path, correct for TTL-copying injectors, and extract the
// features later used for device clustering.
package centrace

import (
	"fmt"
	"net/netip"
	"time"

	"cendev/internal/httpgram"
	"cendev/internal/netem"
	"cendev/internal/obs"
	"cendev/internal/simnet"
	"cendev/internal/tlsgram"
	"cendev/internal/topology"
)

// Protocol selects the application protocol of the probes.
type Protocol int

// Probe protocols. CenTrace targets HTTP Host-header and TLS SNI blocking
// (§4: "We focus on censorship devices performing censorship on the HTTP
// Host header or the SNI extension in the TLS Client Hello"); DNS is the
// protocol extension the paper names in §4.1 and §8, probing UDP queries
// whose QNAME is the trigger.
const (
	HTTP Protocol = iota
	HTTPS
	DNS
	// SSH probes send the client version banner after the handshake. SSH
	// carries no hostname, so the "test" probe is the SSH banner itself
	// (triggering protocol-detecting devices) and the "control" probe is a
	// neutral payload on the same port; the domain strings act only as
	// labels.
	SSH
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case HTTP:
		return "HTTP"
	case HTTPS:
		return "HTTPS"
	case DNS:
		return "DNS"
	default:
		return "SSH"
	}
}

// Port returns the destination port for the protocol.
func (p Protocol) Port() uint16 {
	switch p {
	case HTTP:
		return 80
	case HTTPS:
		return 443
	case DNS:
		return 53
	default:
		return 22
	}
}

// Config parameterizes one CenTrace measurement.
type Config struct {
	ControlDomain string
	TestDomain    string
	Protocol      Protocol
	// MaxTTL bounds the TTL sweep (the paper uses 64; simulated paths are
	// shorter, so the default is 30).
	MaxTTL int
	// Repetitions is how many times each traceroute is repeated to absorb
	// path variance (§4.1: 11 covers 90% of paths on average).
	Repetitions int
	// Retries is how often a timed-out probe is retried before the timeout
	// is accepted (§4.1: up to three times). Zero means the default of 3;
	// pass a negative value to disable retries entirely (ablations).
	Retries int
	// ProbeInterval is the wait between consecutive probes to let stateful
	// devices forget the flow (§4.1: 120 seconds). Virtual time.
	ProbeInterval time.Duration
	// MaxConsecutiveTimeouts ends the TTL sweep early once this many
	// consecutive TTLs have timed out (a dropping device never answers
	// again; the paper simply probes to TTL 64). The default, 10, is high
	// enough that a TTL-copying injector's first surviving reset — which
	// appears only at roughly twice the device's hop distance (§4.3) —
	// is still observed.
	MaxConsecutiveTimeouts int
	// Obs, when non-nil, receives probe/retry counters and virtual-RTT
	// histograms, counted in the prober and added at the end of Run. The
	// recorded series are deterministic for a given scenario and seed at
	// any worker count.
	Obs *obs.Registry
	// Tracer, when non-nil, records measure/trace/probe spans stamped with
	// the network's virtual clock.
	Tracer *obs.Tracer
	// Parent, when non-nil, is the span the measurement nests under (set
	// by Campaign; ignored without a Tracer).
	Parent *obs.Span
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxTTL == 0 {
		c.MaxTTL = 30
	}
	if c.Repetitions == 0 {
		c.Repetitions = 11
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 120 * time.Second
	}
	if c.MaxConsecutiveTimeouts == 0 {
		c.MaxConsecutiveTimeouts = 10
	}
	return c
}

// ResponseKind classifies what a single TTL probe elicited.
type ResponseKind int

// Probe response kinds. RST, FIN, Data, and Timeout can be terminating
// responses (§4.1); ICMP is always non-terminating.
const (
	KindTimeout ResponseKind = iota
	KindICMP
	KindRST
	KindFIN
	KindData // payload-bearing response from the endpoint IP (HTTP body, TLS record, or injected blockpage)
)

// String implements fmt.Stringer using the labels of Figure 3.
func (k ResponseKind) String() string {
	switch k {
	case KindTimeout:
		return "TIMEOUT"
	case KindICMP:
		return "ICMP"
	case KindRST:
		return "RST"
	case KindFIN:
		return "FIN"
	case KindData:
		return "HTTP"
	default:
		return fmt.Sprintf("ResponseKind(%d)", int(k))
	}
}

// InjectedFeatures are the TCP/IP header fields of a terminating packet
// received from the endpoint IP — features for clustering (§7.1).
type InjectedFeatures struct {
	TTL       uint8
	IPID      uint16
	IPFlags   netem.IPFlags
	TCPFlags  netem.TCPFlags
	TCPWindow uint16
	Options   []netem.TCPOptionKind
}

// ProbeObs is the observation from one TTL-limited probe.
type ProbeObs struct {
	TTL  int
	Kind ResponseKind
	// From is the source of the classified response: the ICMP-sending
	// router, or the endpoint IP for TCP responses.
	From netip.Addr
	// GotICMPAlongside is true when a terminating TCP response arrived
	// together with an ICMP Time Exceeded for the same probe — the on-path
	// signature (§4.1, Figure 2(D)).
	GotICMPAlongside bool
	// ICMPFrom is the router that sent the alongside ICMP.
	ICMPFrom netip.Addr
	// Payload of a KindData response.
	Payload []byte
	// Injected header features for TCP responses.
	Injected *InjectedFeatures
	// Quote is the quoted packet from an ICMP response.
	Quote *netem.QuotedPacket
	// QuoteDelta compares the sent probe with the quote (Tracebox-style).
	QuoteDelta *netem.QuoteDelta
	// DialFailed marks probes whose TCP handshake never completed.
	DialFailed bool
}

// Prober runs CenTrace measurements from a client to an endpoint over a
// simulated network.
type Prober struct {
	Net      *simnet.Network
	Client   *topology.Host
	Endpoint *topology.Host
	Config   Config
	// probed records whether any probe of the current measurement has
	// been sent yet: the inter-probe wait is only needed *between* probes,
	// never before the first one.
	probed bool
	// payloads caches rendered probe payloads per protocol and domain — a
	// trace sends the same request bytes dozens of times across the TTL
	// sweep, and a campaign worker's prober measures the same domains for
	// target after target. Callers must treat the returned bytes as
	// immutable.
	payloads map[payloadKey][]byte
	// sentPkt/sentUDP are the scratch as-sent templates ICMP quotes are
	// diffed against (TCP and DNS probes respectively). CompareQuote only
	// reads them and nothing retains them past the probe, so one of each
	// per prober suffices.
	sentPkt netem.Packet
	sentUDP netem.Packet
	// sweep is the TTL sweep's scratch: sweepTTLs appends each observation
	// to it and trace returns an exact-length copy, since the next sweep
	// overwrites it. Sized at MaxTTL on first use, so it never grows.
	sweep []ProbeObs
	// counts is aggregate's scratch for its per-TTL tallies (see
	// aggregate), reused by every aggregate the prober runs.
	counts []int
	// m holds the pre-resolved metric handles (all nil when Config.Obs is
	// nil — the no-op path); t counts into them between flushes.
	m proberMetrics
	t proberTally
}

// payloadKey names a memoized probe payload: one prober can measure a
// domain over HTTP and over HTTPS.
type payloadKey struct {
	proto  Protocol
	domain string
}

// proberMetrics are the probe-level series, resolved once per Prober (or
// once per campaign, whose worker probers share them).
type proberMetrics struct {
	probesByKind [5]*obs.Counter // centrace_probes_total{kind}
	retries      *obs.Counter    // centrace_retries_total
	dialFailures *obs.Counter    // centrace_dial_failures_total
	probeSecs    *obs.Histogram  // centrace_probe_virtual_seconds
}

// proberTally is what the TTL sweep counts for proberMetrics in plain
// integers: a prober runs on one goroutine, and Run flushes the tally
// into the registry once per measurement.
type proberTally struct {
	probesByKind [5]int64
	retries      int64
	dialFailures int64
	probeSecs    obs.HistTally
}

// newProberMetrics resolves the probe-level series in r; all nil when r is
// nil.
func newProberMetrics(r *obs.Registry) proberMetrics {
	var m proberMetrics
	if r == nil {
		return m
	}
	for k := KindTimeout; k <= KindData; k++ {
		m.probesByKind[k] = r.Counter("centrace_probes_total", obs.L("kind", k.String()))
	}
	m.retries = r.Counter("centrace_retries_total")
	m.dialFailures = r.Counter("centrace_dial_failures_total")
	m.probeSecs = r.Histogram("centrace_probe_virtual_seconds", obs.TimeBuckets)
	return m
}

// New returns a Prober with defaulted configuration.
func New(net *simnet.Network, client, ep *topology.Host, cfg Config) *Prober {
	p := newProber(net, client, newProberMetrics(cfg.Obs))
	p.retarget(ep, cfg)
	return p
}

// newProber returns a prober with no measurement set up yet, counting into
// m, which must be resolved from the Obs of every Config it is retargeted
// at.
func newProber(net *simnet.Network, client *topology.Host, m proberMetrics) *Prober {
	p := &Prober{Net: net, Client: client, m: m}
	p.t.probeSecs = m.probeSecs.Tally()
	return p
}

// retarget sets the prober up for its next measurement: the endpoint, the
// defaulted configuration, and no probe sent yet, so the first probe does
// not wait. What carries over holds for any target: payloads keyed by
// protocol and domain, scratch, metric handles, and tallies Run flushed.
func (p *Prober) retarget(ep *topology.Host, cfg Config) {
	p.Endpoint = ep
	p.Config = cfg.withDefaults()
	p.probed = false
}

// flushObs adds the prober's tallies and its network's into the registry.
func (p *Prober) flushObs() {
	for k := range p.t.probesByKind {
		p.m.probesByKind[k].Flush(&p.t.probesByKind[k])
	}
	p.m.retries.Flush(&p.t.retries)
	p.m.dialFailures.Flush(&p.t.dialFailures)
	p.m.probeSecs.Flush(&p.t.probeSecs)
	p.Net.FlushObs()
}

// startSpan opens the measurement's top-level span: under Config.Parent
// when the campaign supplied one, as a tracer root otherwise. Returns nil
// (a no-op span) when the prober is untraced.
func (p *Prober) startSpan(name string, attrs ...obs.Label) *obs.Span {
	if p.Config.Parent != nil {
		return p.Config.Parent.StartChild(name, p.Net.Now(), attrs...)
	}
	return p.Config.Tracer.Start(name, p.Net.Now(), attrs...)
}

// The SSH probe payloads. They depend on whether the domain is the test
// domain, not on the domain, so they bypass the payload memo.
var (
	sshTestPayload    = []byte("SSH-2.0-CenTrace_probe\r\n")
	sshControlPayload = []byte("PING CenTrace_control\r\n")
)

// payloadFor renders the probe payload for a domain, memoized per protocol
// and domain for the life of the prober.
func (p *Prober) payloadFor(domain string) []byte {
	if p.Config.Protocol == SSH {
		if domain == p.Config.TestDomain {
			return sshTestPayload
		}
		return sshControlPayload
	}
	k := payloadKey{p.Config.Protocol, domain}
	if cached, ok := p.payloads[k]; ok {
		return cached
	}
	var rendered []byte
	if k.proto == HTTPS {
		rendered = tlsgram.NewClientHello(domain).Serialize()
	} else {
		rendered = httpgram.NewRequest(domain).Render()
	}
	if p.payloads == nil {
		p.payloads = make(map[payloadKey][]byte)
	}
	p.payloads[k] = rendered
	return rendered
}

// probeOnce sends a single TTL-limited probe over a fresh TCP connection
// (or a bare UDP datagram for DNS) and classifies the result. It does not
// retry.
func (p *Prober) probeOnce(domain string, ttl int) ProbeObs {
	if p.Config.Protocol == DNS {
		return p.probeOnceDNS(domain, ttl)
	}
	obs := ProbeObs{TTL: ttl, Kind: KindTimeout}
	conn, err := p.Net.Dial(p.Client, p.Endpoint, p.Config.Protocol.Port())
	if err != nil {
		obs.DialFailed = true
		return obs
	}
	defer conn.Close()
	payload := p.payloadFor(domain)
	ds := conn.SendPayload(payload, uint8(ttl))

	for _, d := range ds {
		pkt := d.Packet
		switch {
		case pkt.ICMP != nil && pkt.ICMP.Type == netem.ICMPTimeExceeded:
			if obs.Kind == KindTimeout { // first ICMP classifies, unless a TCP response wins
				obs.Kind = KindICMP
				obs.From = pkt.IP.Src
				// The as-sent template is only needed to diff the quote
				// against, which happens at most once per probe.
				sent := &p.sentPkt
				sent.FillTCP(p.Client.Addr, p.Endpoint.Addr, conn.SrcPort, conn.DstPort,
					netem.TCPPsh|netem.TCPAck, 2, 1001, payload)
				sent.IP.TTL = uint8(ttl)
				sent.IP.ID = 2
				obs.recordQuote(pkt.ICMP, sent)
			} else {
				obs.GotICMPAlongside = true
				obs.ICMPFrom = pkt.IP.Src
			}
		case pkt.TCP != nil && pkt.IP.Src == p.Endpoint.Addr:
			// A response from (or spoofed as) the endpoint terminates.
			if obs.Kind == KindICMP {
				// The ICMP arrived first in delivery order; reclassify and
				// remember the double observation.
				obs.GotICMPAlongside = true
				obs.ICMPFrom = obs.From
			}
			obs.From = pkt.IP.Src
			obs.Injected = &InjectedFeatures{
				TTL:       pkt.IP.TTL,
				IPID:      pkt.IP.ID,
				IPFlags:   pkt.IP.Flags,
				TCPFlags:  pkt.TCP.Flags,
				TCPWindow: pkt.TCP.Window,
				Options:   pkt.TCP.OptionKinds(),
			}
			switch {
			case pkt.TCP.Flags&netem.TCPRst != 0:
				obs.Kind = KindRST
			case len(pkt.Payload) > 0:
				obs.Kind = KindData
				// pkt is pooled and reclaimed at the next Transmit; the
				// observation outlives the whole trace (infer runs blockpage
				// matching on it after both aggregates), so copy the bytes.
				obs.Payload = append([]byte(nil), pkt.Payload...)
			case pkt.TCP.Flags&netem.TCPFin != 0:
				// A bare FIN counts as a terminating injection only when it
				// arrives in order. A FIN with a higher sequence number means
				// the preceding data segment was lost in transit — a genuine
				// close, not censorship — so the probe is retried instead.
				if obs.Kind != KindData && pkt.TCP.Seq == conn.ExpectedSeq() {
					obs.Kind = KindFIN
				}
			}
		}
	}
	return obs
}

// quoteBlock co-locates an ICMP observation's quote, its quoted TCP header
// and its delta, so one allocation serves all three (the copy of the
// quoted transport bytes is the other).
type quoteBlock struct {
	quote netem.QuotedPacket
	tcp   netem.TCP
	delta netem.QuoteDelta
}

// recordQuote decodes an ICMP error's quote into ob and diffs it against
// the probe as sent; a quote without a valid IPv4 header records nothing.
// Every call takes a fresh block, so no two observations share a quote or
// a delta.
func (ob *ProbeObs) recordQuote(m *netem.ICMP, sent *netem.Packet) {
	b := new(quoteBlock)
	if m.DecodeQuote(&b.quote, &b.tcp) != nil {
		return
	}
	b.delta = netem.CompareQuote(sent, &b.quote)
	ob.Quote, ob.QuoteDelta = &b.quote, &b.delta
}

// probe sends one probe with retries for timeouts (§4.1: "we retry the
// request up to three times to account for transient network failures"),
// recording attempt statistics on the trace for the confidence score.
//
// The inter-probe wait exists to let stateful devices forget the previous
// flow (§4.1: the paper waits 120 seconds so residual blocking from one
// probe cannot contaminate the next), so it is applied between probes
// only — sleeping before the very first probe of a measurement would
// waste virtual time with nothing to forget. Retries back off
// exponentially (2×, 4×, 8× the interval, capped at 8×): a retry fired
// straight back into a loss burst or an outage window would fail exactly
// like the original, whereas backing off rides the impairment out while
// still giving stateful devices their forget window.
func (p *Prober) probe(domain string, ttl int, tr *Trace, parent *obs.Span) ProbeObs {
	span := parent.StartChild("centrace.probe", p.Net.Now(), obs.L("ttl", obs.SmallInt(ttl)))
	var ob ProbeObs
	attempts := 0
	for attempt := 0; attempt <= p.Config.Retries; attempt++ {
		if p.probed {
			wait := p.Config.ProbeInterval
			if attempt > 0 {
				backoff := attempt
				if backoff > 3 {
					backoff = 3
				}
				wait *= time.Duration(1 << backoff)
			}
			p.Net.Sleep(wait)
		}
		p.probed = true
		attempts++
		start := p.Net.Now()
		ob = p.probeOnce(domain, ttl)
		p.t.probeSecs.Observe((p.Net.Now() - start).Seconds())
		p.t.probesByKind[ob.Kind]++
		if ob.DialFailed {
			tr.DialFailures++
			p.t.dialFailures++
		}
		if ob.Kind != KindTimeout {
			break
		}
	}
	tr.Attempts += attempts
	tr.Retries += attempts - 1
	p.t.retries += int64(attempts - 1)
	span.SetAttr("kind", ob.Kind.String())
	span.End(p.Net.Now())
	return ob
}

// Trace is one full TTL sweep for one domain.
type Trace struct {
	Domain string
	Obs    []ProbeObs
	// TermIdx indexes the terminating observation in Obs, -1 when the
	// sweep ended without one (endpoint never answered and no trailing
	// timeout run was recorded — should not happen in practice).
	TermIdx int
	// Attempts counts every probe transmission in this sweep, retries
	// included.
	Attempts int
	// Retries counts extra attempts spent on timed-out probes (§4.1).
	Retries int
	// DialFailures counts attempts whose TCP handshake never completed.
	DialFailures int
}

// Terminating returns the terminating observation, or nil.
func (t *Trace) Terminating() *ProbeObs {
	if t.TermIdx < 0 || t.TermIdx >= len(t.Obs) {
		return nil
	}
	return &t.Obs[t.TermIdx]
}

// trace runs one TTL sweep for a domain. The sweep fills the prober's
// scratch, so the trace keeps an exact-length copy of it.
func (p *Prober) trace(domain string, parent *obs.Span) Trace {
	span := parent.StartChild("centrace.trace", p.Net.Now())
	defer func() { span.End(p.Net.Now()) }()
	tr := Trace{Domain: domain}
	tr.TermIdx = p.sweepTTLs(domain, &tr, span)
	if len(p.sweep) > 0 {
		tr.Obs = make([]ProbeObs, len(p.sweep))
		copy(tr.Obs, p.sweep)
	}
	return tr
}

// sweepTTLs probes TTL 1 upward into p.sweep, applying the paper's
// terminating response rules: a TCP response from the endpoint IP
// terminates immediately; otherwise, once every remaining TTL times out,
// the first timeout of the trailing run is the terminating response. It
// returns the terminating observation's index, -1 when there is none.
func (p *Prober) sweepTTLs(domain string, tr *Trace, span *obs.Span) int {
	if p.sweep == nil {
		p.sweep = make([]ProbeObs, 0, max(p.Config.MaxTTL, 0))
	}
	p.sweep = p.sweep[:0]
	consecutiveTimeouts := 0
	firstTrailingTimeout := -1
	for ttl := 1; ttl <= p.Config.MaxTTL; ttl++ {
		obs := p.probe(domain, ttl, tr, span)
		p.sweep = append(p.sweep, obs)
		switch obs.Kind {
		case KindRST, KindFIN, KindData:
			return len(p.sweep) - 1
		case KindTimeout:
			if firstTrailingTimeout < 0 {
				firstTrailingTimeout = len(p.sweep) - 1
			}
			consecutiveTimeouts++
			if consecutiveTimeouts >= p.Config.MaxConsecutiveTimeouts {
				return firstTrailingTimeout
			}
		default: // ICMP: path continues
			consecutiveTimeouts = 0
			firstTrailingTimeout = -1
		}
	}
	return firstTrailingTimeout
}
