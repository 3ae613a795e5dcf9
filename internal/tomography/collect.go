package tomography

import (
	"cendev/internal/blockpage"
	"cendev/internal/httpgram"
	"cendev/internal/netem"
	"cendev/internal/simnet"
	"cendev/internal/topology"
)

// CollectConfig parameterizes a measurement campaign over a network's
// routing epochs.
type CollectConfig struct {
	// TestDomain is the potentially censored hostname; ControlDomain is a
	// known-innocuous hostname served by the same endpoint. A test probe
	// only yields an observation when the control probe in the same epoch
	// completed cleanly — otherwise blocking is indistinguishable from
	// plain unreachability (a withdrawn route drops control traffic too).
	TestDomain    string
	ControlDomain string
}

const (
	// probePort is the endpoint TCP port.
	probePort = 80
	// probesPerEpoch is how many test probes each vantage sends per
	// epoch. Each probe uses a fresh connection, so ECMP spreads
	// consecutive probes across paths where the topology allows.
	probesPerEpoch = 3
	// probeTTL is the probe TTL: tomography probes run end to end; only
	// the verdict and the path matter, not hop distance.
	probeTTL = 64
)

// probe verdicts, in the collector's internal classification.
type probeStatus int

const (
	statusClean probeStatus = iota
	statusBlocked
	statusUnreachable // dial refused or timed out: no baseline, not evidence
)

// Collect runs the measurement campaign: for every routing epoch of the
// network's route-dynamics engine (or the single canonical epoch when none
// is attached), each vantage sends control-gated test probes to the
// endpoint and records a blocking verdict together with the exact links
// its flow crossed. The virtual clock is advanced to each epoch's start,
// so the returned observations sample every routing configuration the
// schedule produces. Deterministic: observations depend only on the
// network state and config, never on wall time or iteration order.
func Collect(n *simnet.Network, vantages []*topology.Host, endpoint *topology.Host, cfg CollectConfig) []Observation {
	epochs := 1
	if eng := n.Routes(); eng != nil {
		epochs = eng.Epochs()
	}
	var out []Observation
	for e := 0; e < epochs; e++ {
		if eng := n.Routes(); eng != nil {
			if start := eng.EpochStart(e); n.Now() < start {
				n.Sleep(start - n.Now())
			}
		}
		for _, v := range vantages {
			for p := 0; p < probesPerEpoch; p++ {
				if ob, ok := probePair(n, v, endpoint, cfg); ok {
					out = append(out, ob)
				}
			}
		}
	}
	return out
}

// probePair runs one control-gated test probe from a vantage and returns
// the resulting observation. ok is false when the pair produced no
// evidence: the control probe did not complete cleanly (endpoint or route
// unreachable, or the control domain itself censored) or no route existed.
func probePair(n *simnet.Network, v, endpoint *topology.Host, cfg CollectConfig) (Observation, bool) {
	// Each pair starts from pristine device state so residual blocking
	// tripped by an earlier probe never contaminates this one's verdict.
	n.ResetDeviceState()
	if probeOnce(n, v, endpoint, cfg.ControlDomain, cfg) != statusClean {
		return Observation{}, false
	}
	// The control probe may itself have tripped flow state on devices
	// keyed loosely; reset again so the test probe is judged alone.
	n.ResetDeviceState()

	// Capture the test flow's path before dialing: Dial consumes exactly
	// one ephemeral port, so peeking the sequence gives the 5-tuple the
	// connection will hash with.
	srcPort := n.PortSeq()
	path := n.FlowPath(v, endpoint, srcPort, probePort)
	if len(path) == 0 {
		return Observation{}, false
	}
	links := pathLinks(v, path)
	epoch := 0
	if eng := n.Routes(); eng != nil {
		epoch = eng.EpochAt(n.Now()).Index
	}

	status := probeOnce(n, v, endpoint, cfg.TestDomain, cfg)
	// With a clean control in hand, a failed test dial is interference:
	// the SYN passed content filters, so only a device dropping this flow
	// explains the silence.
	blocked := status != statusClean

	// A probe whose packets straddled an epoch boundary crossed links the
	// captured path no longer describes — drop it rather than feed the
	// solver a wrong incidence row.
	if eng := n.Routes(); eng != nil && eng.EpochAt(n.Now()).Index != epoch {
		return Observation{}, false
	}
	return Observation{
		Vantage:  v.ID,
		Endpoint: endpoint.ID,
		Epoch:    epoch,
		Blocked:  blocked,
		Links:    links,
	}, true
}

// probeOnce opens a fresh connection, requests the domain, and classifies
// the outcome the same way CenTrace's probe loop does: RST injection,
// in-order bare FIN, blockpage content, and silence all read as blocked;
// genuine (non-blockpage) data reads as clean.
func probeOnce(n *simnet.Network, v, endpoint *topology.Host, domain string, cfg CollectConfig) probeStatus {
	conn, err := n.Dial(v, endpoint, probePort)
	if err != nil {
		return statusUnreachable
	}
	defer conn.Close()
	expected := conn.ExpectedSeq()
	ds := conn.SendPayload(httpgram.NewRequest(domain).Render(), probeTTL)
	for _, d := range ds {
		pkt := d.Packet
		if pkt.TCP == nil || pkt.IP.Src != endpoint.Addr {
			continue
		}
		switch {
		case pkt.TCP.Flags&netem.TCPRst != 0:
			return statusBlocked
		case len(pkt.Payload) > 0:
			if _, isBlockpage := blockpage.Match(pkt.Payload); isBlockpage {
				return statusBlocked
			}
			return statusClean
		case pkt.TCP.Flags&netem.TCPFin != 0 && pkt.TCP.Seq == expected:
			// A bare in-order FIN before any data is an injected teardown;
			// a genuine post-data FIN carries a later sequence number.
			return statusBlocked
		}
	}
	// No terminating response to the request: the payload was dropped
	// in-network (the handshake already proved the endpoint reachable).
	return statusBlocked
}

// pathLinks converts a router-level flow path into the undirected link set
// an observation reports, including the vantage's access link — the first
// place a censor can sit.
func pathLinks(v *topology.Host, path []*topology.Router) []Link {
	links := make([]Link, 0, len(path))
	links = append(links, MakeLink(simnet.ClientAccessLink(v), path[0].ID))
	for i := 1; i < len(path); i++ {
		links = append(links, MakeLink(path[i-1].ID, path[i].ID))
	}
	return links
}
