package centrace

import (
	"fmt"
	"net/netip"
	"strconv"

	"cendev/internal/blockpage"
	"cendev/internal/geoip"
	"cendev/internal/netem"
	"cendev/internal/obs"
)

// Aggregate combines the repeated traceroutes for one domain into hop
// distributions and modal terminating behaviour, the paper's answer to
// ECMP path variance (§4.1: "repeat both our Control and Test Domain
// traceroutes multiple times ... create a probability distribution of IP
// addresses at each hop ... extract the most likely IP address").
type Aggregate struct {
	Domain string
	Traces []Trace
	// HopDist maps TTL → responding router address → observation count.
	HopDist map[int]map[netip.Addr]int
	// TermTTL and TermKind are the modal terminating TTL and kind.
	TermTTL  int
	TermKind ResponseKind
	// EndpointTTL is the modal TTL at which a payload-bearing response from
	// the endpoint was observed; 0 when the endpoint was never reached.
	EndpointTTL int
}

// MostLikelyHop returns the modal responder address at a TTL: the highest
// count, the lower address on a tie.
func (a *Aggregate) MostLikelyHop(ttl int) (netip.Addr, bool) {
	var best netip.Addr
	bestCount, found := 0, false
	for addr, c := range a.HopDist[ttl] {
		if !found || c > bestCount || c == bestCount && addr.Less(best) {
			best, bestCount, found = addr, c, true
		}
	}
	return best, found
}

// terminatingObs returns the observations at the modal terminating TTL.
func (a *Aggregate) terminatingObs() []*ProbeObs {
	var out []*ProbeObs
	for i := range a.Traces {
		t := a.Traces[i].Terminating()
		if t != nil && t.TTL == a.TermTTL {
			out = append(out, t)
		}
	}
	return out
}

// aggregate runs Repetitions traceroutes for one domain.
func (p *Prober) aggregate(domain string, parent *obs.Span) *Aggregate {
	span := parent.StartChild("centrace.aggregate", p.Net.Now(), obs.L("domain", domain))
	defer func() { span.End(p.Net.Now()) }()
	a := &Aggregate{Domain: domain, HopDist: make(map[int]map[netip.Addr]int)}
	if p.Config.Repetitions > 0 {
		a.Traces = make([]Trace, 0, p.Config.Repetitions)
	}
	// Every observed TTL is in [1, MaxTTL], so the per-TTL tallies are
	// dense: terminating TTLs in the first half, endpoint TTLs in the
	// second.
	n := max(p.Config.MaxTTL, 0) + 1
	if cap(p.counts) < 2*n {
		p.counts = make([]int, 2*n)
	}
	p.counts = p.counts[:2*n]
	clear(p.counts)
	termTTLCount, endpointTTLCount := p.counts[:n], p.counts[n:]
	var termKindCount [KindData + 1]int
	for rep := 0; rep < p.Config.Repetitions; rep++ {
		tr := p.trace(domain, span)
		a.Traces = append(a.Traces, tr)
		for _, obs := range tr.Obs {
			if obs.Kind == KindICMP {
				if a.HopDist[obs.TTL] == nil {
					a.HopDist[obs.TTL] = make(map[netip.Addr]int)
				}
				a.HopDist[obs.TTL][obs.From]++
			}
			if obs.Kind == KindData {
				endpointTTLCount[obs.TTL]++
			}
		}
		if t := tr.Terminating(); t != nil {
			termTTLCount[t.TTL]++
			termKindCount[t.Kind]++
		}
	}
	a.TermTTL = modalTTL(termTTLCount)
	a.TermKind = modalKind(&termKindCount)
	a.EndpointTTL = modalTTL(endpointTTLCount)
	return a
}

// modalTTL returns the most counted TTL, the lowest on a tie, and 0 when
// nothing was counted.
func modalTTL(counts []int) int {
	best, bestCount := 0, 0
	for ttl, c := range counts {
		if c > bestCount {
			best, bestCount = ttl, c
		}
	}
	return best
}

// modalKind returns the most counted kind, the first in ResponseKind order
// on a tie, and KindTimeout when nothing was counted.
func modalKind(counts *[KindData + 1]int) ResponseKind {
	best, bestCount := KindTimeout, 0
	for k, c := range counts {
		if c > bestCount {
			best, bestCount = ResponseKind(k), c
		}
	}
	return best
}

// LocationClass buckets where the blocking hop sits relative to the client
// (C) and endpoint (E) — the categories of Figure 3.
type LocationClass int

// Location classes.
const (
	// LocUnknown means the measurement was not blocked or could not be
	// localized.
	LocUnknown LocationClass = iota
	// LocPath means blocking occurred on the path strictly between client
	// and endpoint.
	LocPath
	// LocAtE means blocking occurred at the endpoint IP itself (a NAT or
	// host firewall rather than ISP censorship).
	LocAtE
	// LocPastE means the terminating hop appeared beyond the endpoint —
	// the signature of TTL-copying injectors (§4.3).
	LocPastE
	// LocNoICMP means neither the terminating hop nor the preceding hop
	// answered with ICMP in the control trace, so the locus is ambiguous.
	LocNoICMP
)

// String implements fmt.Stringer using Figure 3's labels.
func (l LocationClass) String() string {
	switch l {
	case LocPath:
		return "Path(C->E)"
	case LocAtE:
		return "At E"
	case LocPastE:
		return "Past E"
	case LocNoICMP:
		return "No ICMP"
	default:
		return "Unknown"
	}
}

// PlacementClass is the in-path/on-path inference for the blocking device.
type PlacementClass int

// Placement inference results.
const (
	PlacementUnknown PlacementClass = iota
	PlacementInPath
	PlacementOnPath
)

// String implements fmt.Stringer.
func (p PlacementClass) String() string {
	switch p {
	case PlacementInPath:
		return "in-path"
	case PlacementOnPath:
		return "on-path"
	default:
		return "unknown"
	}
}

// HopInfo annotates a hop address with registry metadata.
type HopInfo struct {
	TTL     int
	Addr    netip.Addr
	ASN     uint32
	Country string
	Org     string
}

// String implements fmt.Stringer.
func (h HopInfo) String() string {
	if !h.Addr.IsValid() {
		return fmt.Sprintf("hop %d (no ICMP)", h.TTL)
	}
	return fmt.Sprintf("hop %d %s AS%d (%s, %s)", h.TTL, h.Addr, h.ASN, h.Org, h.Country)
}

// Result is one complete CenTrace measurement: control + test aggregates
// and the blocking inference drawn from them.
type Result struct {
	Config   Config
	Client   netip.Addr
	Endpoint netip.Addr
	// Valid is false when the control traceroute never reached the
	// endpoint, making the measurement unusable.
	Valid bool
	// Blocked is true when the test domain hit an explicit interference
	// signal (repeated drops, RST/FIN injection, or a known blockpage).
	Blocked bool
	// TermKind is the test domain's terminating response kind.
	TermKind ResponseKind
	// TermTTL is the test domain's modal terminating TTL.
	TermTTL int
	// EndpointTTL is the hop distance to the endpoint per the control.
	EndpointTTL int
	// Location classifies the blocking hop relative to client and endpoint.
	Location LocationClass
	// Placement is the in-path/on-path inference.
	Placement PlacementClass
	// DeviceTTL is the inferred hop distance of the device, after TTL-copy
	// correction when applicable.
	DeviceTTL int
	// TTLCopyCorrected is true when the Past-E correction was applied.
	TTLCopyCorrected bool
	// BlockingHop is the control-trace hop at DeviceTTL with AS metadata.
	BlockingHop HopInfo
	// Injected carries header features of the terminating packet when one
	// was injected.
	Injected *InjectedFeatures
	// QuoteDelta is the Tracebox-style comparison at the blocking hop from
	// the control trace, nil when no quote was available.
	QuoteDelta *netem.QuoteDelta
	// BlockpageVendor is the vendor attribution when the terminating
	// response matched a known blockpage.
	BlockpageVendor string
	// BlockpageID is the fingerprint ID of the matched blockpage.
	BlockpageID string
	// Confidence scores how well-supported the localization is (see
	// confidence.go). Populated for blocked and unblocked results alike.
	Confidence Confidence
	// Degraded marks a blocked result whose blocking hop could not be
	// localized consistently: blocking was observed, but BlockingHop (and
	// the location/placement inference) should not be trusted. Degraded
	// results always score below HighConfidence.
	Degraded bool

	Control *Aggregate
	Test    *Aggregate
}

// Run performs the full CenTrace measurement: the control traceroute
// first, then the test traceroute, then inference (§4.2: "We perform the
// Control Domain CenTrace probes first and then immediately perform the
// Test Domain CenTrace probes"). On return — a panic included — the
// prober's and its network's metric tallies are in the registry.
func (p *Prober) Run() *Result {
	defer p.flushObs()
	span := p.startSpan("centrace.measure",
		obs.L("test", p.Config.TestDomain),
		obs.L("protocol", p.Config.Protocol.String()))
	res := &Result{
		Config:   p.Config,
		Client:   p.Client.Addr,
		Endpoint: p.Endpoint.Addr,
	}
	res.Control = p.aggregate(p.Config.ControlDomain, span)
	res.Test = p.aggregate(p.Config.TestDomain, span)
	res.EndpointTTL = res.Control.EndpointTTL
	res.Valid = res.EndpointTTL > 0
	p.infer(res)
	span.SetAttr("blocked", strconv.FormatBool(res.Blocked))
	span.End(p.Net.Now())
	return res
}

// infer derives the blocking verdict and device location from the two
// aggregates.
func (p *Prober) infer(res *Result) {
	test := res.Test
	res.TermKind = test.TermKind
	res.TermTTL = test.TermTTL

	// Blocking verdict (conservative, §4.1): resets, repeated drops, and
	// known blockpages only.
	switch test.TermKind {
	case KindRST, KindFIN:
		res.Blocked = true
	case KindTimeout:
		res.Blocked = true
	case KindData:
		// Data responses block only when they match a known blockpage —
		// or, for DNS probes, a known forged-answer address.
		for _, obs := range test.terminatingObs() {
			if p.Config.Protocol == DNS {
				if dnsBlocked(obs.Payload) {
					res.Blocked = true
					res.BlockpageID = "dns-injection"
					break
				}
				continue
			}
			if fp, ok := blockpage.Match(obs.Payload); ok {
				res.Blocked = true
				res.BlockpageVendor = fp.Vendor
				res.BlockpageID = fp.ID
				break
			}
		}
	}
	if !res.Blocked || !res.Valid {
		res.Location = LocUnknown
		p.scoreConfidence(res)
		if res.Blocked && !res.Valid {
			// Blocking signal without a usable control: observed but not
			// localizable.
			res.Degraded = true
			if res.Confidence.Score >= HighConfidence {
				res.Confidence.Score = HighConfidence - 0.05
			}
		}
		return
	}

	// Collect injected-header features from the modal terminating probes.
	terms := test.terminatingObs()
	onPathVotes := 0
	for _, obs := range terms {
		if obs.Injected != nil && res.Injected == nil {
			res.Injected = obs.Injected
		}
		if obs.GotICMPAlongside {
			onPathVotes++
		}
	}

	// TTL-copy correction (§4.3, Figure 2(E)): injected packets arriving
	// with TTL 1 mean the device copied the probe's TTL; the true device
	// distance is (observed terminating TTL + 1) / 2.
	res.DeviceTTL = res.TermTTL
	if res.Injected != nil && res.Injected.TTL == 1 && res.TermTTL > 1 {
		res.DeviceTTL = (res.TermTTL + 1) / 2
		res.TTLCopyCorrected = true
	}

	// Placement inference (§4.1): both an injected terminating response
	// and an ICMP from the next hop → on-path; injection alone → in-path;
	// drops → in-path (the device removed the packet from the wire).
	switch {
	case res.TermKind == KindTimeout:
		res.Placement = PlacementInPath
	case onPathVotes*2 > len(terms):
		res.Placement = PlacementOnPath
	default:
		res.Placement = PlacementInPath
	}

	// Location class relative to the endpoint (Figure 3).
	switch {
	case res.TermTTL > res.EndpointTTL:
		res.Location = LocPastE
	case res.TermTTL == res.EndpointTTL:
		res.Location = LocAtE
	default:
		res.Location = LocPath
		// No-ICMP ambiguity: neither the terminating hop nor the one
		// before it answered in the control trace.
		_, okAt := res.Control.MostLikelyHop(res.DeviceTTL)
		_, okBefore := res.Control.MostLikelyHop(res.DeviceTTL - 1)
		if !okAt && !okBefore && res.DeviceTTL > 1 {
			res.Location = LocNoICMP
		}
	}

	// Blocking hop: the control-trace hop at the (corrected) device TTL.
	res.BlockingHop = p.hopInfo(res.Control, res.DeviceTTL)

	// Quote delta at the blocking hop from the control trace.
	for i := range res.Control.Traces {
		for j := range res.Control.Traces[i].Obs {
			obs := &res.Control.Traces[i].Obs[j]
			if obs.TTL == res.DeviceTTL && obs.QuoteDelta != nil {
				res.QuoteDelta = obs.QuoteDelta
				break
			}
		}
		if res.QuoteDelta != nil {
			break
		}
	}

	p.scoreConfidence(res)
}

// hopInfo resolves a control-trace hop to registry metadata.
func (p *Prober) hopInfo(control *Aggregate, ttl int) HopInfo {
	info := HopInfo{TTL: ttl}
	addr, ok := control.MostLikelyHop(ttl)
	if !ok {
		// At-E and Past-E cases have no router at that TTL; fall back to
		// the endpoint address for At-E.
		if ttl >= control.EndpointTTL && control.EndpointTTL > 0 {
			addr = p.Endpoint.Addr
		} else {
			return info
		}
	}
	info.Addr = addr
	var gi geoip.Info
	gi, _ = p.Net.Geo.Lookup(addr)
	info.ASN = gi.ASN
	info.Country = gi.Country
	info.Org = gi.Name
	return info
}
