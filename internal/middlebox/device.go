// Package middlebox models censorship devices: the rules they match, the
// parsers they use (with per-vendor quirks that CenFuzz strategies exploit),
// the actions they take, and the wire-level fingerprints of the packets they
// inject. Devices are placed in-path (can drop and modify traffic at line
// rate) or on-path (see a mirror of traffic and can only inject), matching
// the taxonomy in §4.1 of the paper.
//
// A Device is configuration only. What a device remembers about the
// traffic it has inspected lives in a FlowState the caller keeps and hands
// to Inspect, so one configured device can serve many independent
// networks, each with flow state of its own.
package middlebox

import (
	"bytes"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"
	"time"

	"cendev/internal/httpgram"
	"cendev/internal/netem"
	"cendev/internal/tlsgram"
)

// Placement is where the device sits relative to the traffic it censors.
type Placement int

// Device placements (§4.1).
const (
	// InPath devices sit in the network link, operate at line rate, and can
	// inject, modify, or drop packets. A triggered in-path device here drops
	// the offending packet (so it never reaches the next hop) and may inject.
	InPath Placement = iota
	// OnPath devices receive a copy of passing packets and can only inject;
	// the original packet continues to the next hop.
	OnPath
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == InPath {
		return "in-path"
	}
	return "on-path"
}

// Action is what a triggered device does to the flow.
type Action int

// Device actions observed in the wild (§3.1), plus DNS injection (the §8
// future-work extension).
const (
	ActionDrop Action = iota
	ActionRST
	ActionFIN
	ActionBlockpage
	ActionDNSInject
	// ActionThrottle slows matched flows instead of blocking them — the
	// technique behind Russia's social-media throttling the paper's
	// introduction cites ([79]). CenTrace's conservative blocking
	// definition deliberately does not classify throttling as censorship;
	// detecting it needs timing comparison (see experiments.ThrottlingDemo).
	ActionThrottle
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionDrop:
		return "DROP"
	case ActionRST:
		return "RST"
	case ActionFIN:
		return "FIN"
	case ActionBlockpage:
		return "BLOCKPAGE"
	case ActionDNSInject:
		return "DNS-INJECT"
	case ActionThrottle:
		return "THROTTLE"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// MatchMode is how a device compares an extracted hostname against its rule
// list. The differences between modes are exactly what the hostname-mutating
// CenFuzz strategies surface (§6.3: leading-wildcard rules, keyword rules).
type MatchMode int

// Hostname matching modes.
const (
	// MatchExact requires the hostname to equal a rule entry.
	MatchExact MatchMode = iota
	// MatchSuffix implements leading-wildcard rules (*.domain.tld): the
	// hostname must equal the entry or end with it.
	MatchSuffix
	// MatchContains triggers when the entry appears anywhere in the
	// hostname, tolerating leading and trailing padding.
	MatchContains
	// MatchKeyword triggers on the second-level label alone (e.g. "example"
	// for rule example.com), catching even TLD changes.
	MatchKeyword
)

// String implements fmt.Stringer.
func (m MatchMode) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchSuffix:
		return "suffix"
	case MatchContains:
		return "contains"
	case MatchKeyword:
		return "keyword"
	default:
		return fmt.Sprintf("MatchMode(%d)", int(m))
	}
}

// RuleSet is a device's blocklist.
type RuleSet struct {
	Mode MatchMode
	// Domains are the configured rule entries. For MatchKeyword entries the
	// second-level label is extracted automatically.
	Domains []string
	// CaseInsensitive folds character case before matching. Most real
	// devices do (§6.3: capitalize strategies rarely evade).
	CaseInsensitive bool
}

// keyword extracts the second-level label of a domain ("example" from
// "www.example.com").
func keyword(domain string) string {
	labels := strings.Split(domain, ".")
	if len(labels) >= 2 {
		return labels[len(labels)-2]
	}
	return domain
}

// Matches reports whether host triggers any rule.
func (rs *RuleSet) Matches(host string) bool {
	if host == "" {
		return false
	}
	h := host
	if rs.CaseInsensitive {
		h = strings.ToLower(h)
	}
	for _, d := range rs.Domains {
		entry := d
		if rs.CaseInsensitive {
			entry = strings.ToLower(entry)
		}
		switch rs.Mode {
		case MatchExact:
			if h == entry {
				return true
			}
		case MatchSuffix:
			if h == entry || strings.HasSuffix(h, entry) {
				return true
			}
		case MatchContains:
			if strings.Contains(h, entry) {
				return true
			}
		case MatchKeyword:
			if kw := keyword(entry); kw != "" && strings.Contains(h, kw) {
				return true
			}
		}
	}
	return false
}

// TLSQuirks describes the limits of a device's TLS Client Hello parser.
type TLSQuirks struct {
	// ParseVersionMin/Max bound the version range the parser handles: the
	// hello is inspected only when its offered range [EffectiveMinVersion,
	// EffectiveMaxVersion] intersects [ParseVersionMin, ParseVersionMax].
	// A hello offering only TLS 1.0 — or only TLS 1.3 — falls outside a
	// 1.1–1.2 parser's window, which is how "setting the TLS Version to
	// 1.0 or 1.3" evades some devices (§6.3).
	ParseVersionMin, ParseVersionMax uint16
	// RequireKnownSuite, when non-empty, requires at least one offered
	// cipher suite to be in the set; otherwise the parser gives up (how
	// RC4-only hellos evade some devices, §6.3).
	RequireKnownSuite map[uint16]bool
}

// parses reports whether the device's TLS stack manages to inspect ch.
func (q *TLSQuirks) parses(ch *tlsgram.ClientHello) bool {
	if q.ParseVersionMin != 0 || q.ParseVersionMax != 0 {
		lo, hi := ch.EffectiveMinVersion(), ch.EffectiveMaxVersion()
		if q.ParseVersionMin != 0 && hi < q.ParseVersionMin {
			return false
		}
		if q.ParseVersionMax != 0 && lo > q.ParseVersionMax {
			return false
		}
	}
	if len(q.RequireKnownSuite) > 0 {
		known := false
		for _, cs := range ch.CipherSuites {
			if q.RequireKnownSuite[cs] {
				known = true
				break
			}
		}
		if !known {
			return false
		}
	}
	return true
}

// Quirks bundles the protocol-parsing idiosyncrasies of a device.
type Quirks struct {
	HTTP httpgram.ScanOptions
	// PathSensitive restricts HTTP blocking to requests for the root path
	// "/" (§6.3: alternate paths evade 68.72% of fuzzed requests).
	PathSensitive bool
	// RequireVersionWordExact requires the literal "HTTP" version word in
	// the request line; mangled words like "HtTP/1.1" or "XXXX/1.1" evade.
	RequireVersionWordExact bool
	// BlockSSHProtocol makes the device block SSH by protocol detection:
	// any payload starting with the "SSH-" version banner triggers,
	// regardless of the hostname rules (the SSH extension of §4.1 — SSH
	// carries no hostname, so real devices key on the protocol itself).
	BlockSSHProtocol bool
	TLS              TLSQuirks
}

// InjectionProfile is the wire-level fingerprint of packets the device
// injects — the features §7.1 extracts for clustering.
type InjectionProfile struct {
	IPID      uint16
	IPFlags   netem.IPFlags
	TTL       uint8 // ignored when CopyTTL is set on the device
	TCPWindow uint16
	Options   []netem.TCPOption
}

// Device is one censorship middlebox deployment, and holds its
// configuration only: every clone of the network it is attached to shares
// it, so it must not change once that network has been cloned. What the
// device remembers of the traffic it inspects is a FlowState (see
// Inspect).
type Device struct {
	ID        string
	Vendor    Vendor
	Placement Placement
	Action    Action
	Rules     RuleSet
	Quirks    Quirks
	Inject    InjectionProfile
	// CopyTTL makes injected packets reuse the IP TTL (and ID) of the
	// offending packet instead of a fresh TTL — the behaviour behind the
	// "Past E" artifact in RU (§4.3, Figure 2(E)).
	CopyTTL bool
	// Blockpage is the HTTP response body injected by ActionBlockpage.
	Blockpage string
	// Addr is the device's management address, probeable by CenProbe when
	// the device is in-path. Zero for devices without a public address.
	Addr netip.Addr
	// Services maps open TCP/UDP ports to protocol banners (CenProbe §5).
	Services map[int]string
	// ResidualWindow is how long after a trigger the device keeps dropping
	// packets between the same two hosts (stateful blocking, §4.1). Zero
	// disables residual blocking.
	ResidualWindow time.Duration
	// MaxInjectsPerFlow caps injections for one flow (some middleboxes
	// "only inject censored responses a certain number of times per TCP
	// connection", §4.1). Zero means unlimited.
	MaxInjectsPerFlow int
	// ThrottleDelay is the per-packet delay an ActionThrottle device
	// imposes; zero selects a 400 ms default.
	ThrottleDelay time.Duration
	// Personality is the device's TCP/IP stack fingerprint, observable by
	// Nmap-style probes against its management address.
	Personality TCPPersonality
	// BogusA is the forged A record a DNS-injecting device answers with;
	// zero selects the first well-known BogusAddrs entry.
	BogusA netip.Addr
	// DNSOnly restricts the device to DNS inspection (it ignores TCP
	// traffic entirely).
	DNSOnly bool
	// Reassembles makes the DPI engine accumulate TCP segments per flow
	// and match on the reassembled stream. Devices that inspect packets
	// individually are evaded by splitting the trigger across segments —
	// the classic evasion the Geneva/SymTCP line of work exploits (the
	// paper's [11], [72]).
	Reassembles bool
}

// FlowState is what a device remembers about the flows it has inspected:
// its residual blocking table, per-flow injection counts, reassembly
// streams, and trigger memo. The zero value is an empty state, ready to
// use. A state belongs to one device, and to one goroutine at a time.
type FlowState struct {
	// residual is the residual blocking table: one entry per flagged host
	// pair, holding its expiry. A device sees few pairs between resets, so
	// a scanned slice beats a map, and Reset keeps its storage.
	residual []residualEntry
	injects  map[flowKey]int
	streams  map[flowKey][]byte

	// trigMemo caches the pure payload→triggered decision (hostname
	// extraction + rule matching), which depends only on the device's
	// immutable configuration. Devices are configured before traffic
	// flows and before their network is first cloned; mutating Rules or
	// Quirks afterwards is not supported.
	trigMemo map[string]bool
}

// maxStreamBuffer bounds per-flow reassembly state, as real DPI does.
const maxStreamBuffer = 8 << 10

// maxTrigMemo bounds the payload→triggered memo; fuzzing campaigns send
// unbounded distinct payloads, so the memo is cleared when full.
const maxTrigMemo = 1024

// residualEntry is one host pair's residual blocking window: packets
// between a and b, in either direction, are dropped until the expiry.
type residualEntry struct {
	a, b  netip.Addr
	until time.Duration
}

// between reports whether the entry is the window of src and dst's pair.
func (e *residualEntry) between(src, dst netip.Addr) bool {
	return e.a == src && e.b == dst || e.a == dst && e.b == src
}

type flowKey struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
}

// inResidual reports whether a packet's host pair is inside a residual
// blocking window at now, deleting the pair's entry once it has expired.
func (st *FlowState) inResidual(pkt *netem.Packet, now time.Duration) bool {
	for i := range st.residual {
		e := &st.residual[i]
		if !e.between(pkt.IP.Src, pkt.IP.Dst) {
			continue
		}
		if now < e.until {
			return true
		}
		last := len(st.residual) - 1
		st.residual[i] = st.residual[last]
		st.residual = st.residual[:last]
		return false
	}
	return false
}

// flagResidual opens (or extends) the residual window of a packet's host
// pair until the given expiry.
func (st *FlowState) flagResidual(pkt *netem.Packet, until time.Duration) {
	for i := range st.residual {
		if e := &st.residual[i]; e.between(pkt.IP.Src, pkt.IP.Dst) {
			e.until = until
			return
		}
	}
	st.residual = append(st.residual, residualEntry{pkt.IP.Src, pkt.IP.Dst, until})
}

// Verdict is the device's decision about one packet.
type Verdict struct {
	// Triggered is true when the packet matched a censorship rule (or
	// residual state) and the device acted.
	Triggered bool
	// DropOriginal is true when the original packet must not be forwarded
	// (in-path devices).
	DropOriginal bool
	// Injected packets to deliver to the packet's source (spoofed from the
	// endpoint). Nil for drop-only actions.
	Injected []*netem.Packet
	// Residual is true when the trigger came from residual flow state
	// rather than payload inspection.
	Residual bool
	// ThrottleDelay is the extra delay a throttling device imposes on the
	// flow (zero for non-throttling actions).
	ThrottleDelay time.Duration
}

// httpVersionPrefix is hoisted so the RequireVersionWordExact check does
// not allocate per packet.
var httpVersionPrefix = []byte("HTTP/")

// extractHostname pulls the hostname the device keys on from the packet
// payload, honoring the device's parser quirks. ok is false when the
// payload carries no hostname this device can see.
func (d *Device) extractHostname(payload []byte) (string, bool) {
	if len(payload) == 0 {
		return "", false
	}
	if tlsgram.IsClientHello(payload) {
		ch, err := tlsgram.Parse(payload)
		if err != nil {
			return "", false
		}
		if !d.Quirks.TLS.parses(ch) {
			return "", false
		}
		return ch.SNI()
	}
	// Otherwise treat as HTTP.
	host, ok := httpgram.ExtractHost(payload, d.Quirks.HTTP)
	if !ok {
		return "", false
	}
	if d.Quirks.PathSensitive || d.Quirks.RequireVersionWordExact {
		_, path, version := httpgram.RequestLineFields(payload)
		if d.Quirks.PathSensitive && string(path) != "/" {
			return "", false
		}
		if d.Quirks.RequireVersionWordExact && !bytes.HasPrefix(version, httpVersionPrefix) {
			return "", false
		}
	}
	return host, true
}

// Inspect examines a client→endpoint packet at virtual time now and returns
// the device's verdict. endpoint is the IP the injected packets must spoof.
// st is the device's flow state, which Inspect reads and updates: the
// caller keeps one per device, and only this device's packets may pass
// through it.
func (d *Device) Inspect(st *FlowState, pkt *netem.Packet, endpoint netip.Addr, now time.Duration) Verdict {
	if pkt.UDP != nil {
		return d.inspectDNS(st, pkt, endpoint, now)
	}
	if pkt.TCP == nil || d.DNSOnly {
		return Verdict{}
	}
	// Residual state: drop everything between a flagged host pair.
	if d.ResidualWindow > 0 && st.inResidual(pkt, now) {
		return Verdict{Triggered: true, DropOriginal: d.Placement == InPath, Residual: true}
	}
	// Reassembling engines match on the accumulated stream; per-packet
	// engines see only the segment in hand.
	payload := pkt.Payload
	if d.Reassembles && len(pkt.Payload) > 0 {
		key := flowKey{pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort}
		if st.streams == nil {
			st.streams = make(map[flowKey][]byte)
		}
		buf := append(st.streams[key], pkt.Payload...)
		if len(buf) > maxStreamBuffer {
			buf = buf[len(buf)-maxStreamBuffer:]
		}
		st.streams[key] = buf
		payload = buf
	}
	// Bare SYN/ACK/FIN segments carry nothing to match: no rule or
	// protocol check can trigger on an empty payload.
	if len(payload) == 0 {
		return Verdict{}
	}
	triggered := false
	if d.Quirks.BlockSSHProtocol && len(payload) >= 4 && string(payload[:4]) == "SSH-" {
		triggered = true
	}
	if !triggered {
		trig, seen := st.trigMemo[string(payload)]
		if !seen {
			host, ok := d.extractHostname(payload)
			trig = ok && d.Rules.Matches(host)
			if st.trigMemo == nil {
				st.trigMemo = make(map[string]bool)
			} else if len(st.trigMemo) >= maxTrigMemo {
				clear(st.trigMemo)
			}
			st.trigMemo[string(payload)] = trig
		}
		if !trig {
			return Verdict{}
		}
	}
	if d.ResidualWindow > 0 {
		st.flagResidual(pkt, now+d.ResidualWindow)
	}
	if d.Action == ActionThrottle {
		delay := d.ThrottleDelay
		if delay == 0 {
			delay = 400 * time.Millisecond
		}
		return Verdict{Triggered: true, ThrottleDelay: delay}
	}
	v := Verdict{Triggered: true, DropOriginal: d.Placement == InPath}
	if d.Action == ActionDrop {
		return v
	}
	// Injection cap per flow.
	if d.MaxInjectsPerFlow > 0 {
		key := flowKey{pkt.IP.Src, pkt.IP.Dst, pkt.TCP.SrcPort, pkt.TCP.DstPort}
		if st.injects == nil {
			st.injects = make(map[flowKey]int)
		}
		if st.injects[key] >= d.MaxInjectsPerFlow {
			return v
		}
		st.injects[key]++
	}
	v.Injected = d.buildInjections(pkt, endpoint)
	return v
}

// buildInjections constructs the spoofed packets for a triggered flow.
func (d *Device) buildInjections(trigger *netem.Packet, endpoint netip.Addr) []*netem.Packet {
	ttl := d.Inject.TTL
	if ttl == 0 {
		ttl = 64
	}
	ipid := d.Inject.IPID
	if d.CopyTTL {
		// The device copies the IP header of the offending packet into its
		// injected response, including TTL and ID (§4.3, Figure 2(E)).
		ttl = trigger.IP.TTL
		ipid = trigger.IP.ID
	}
	base := netem.Packet{
		IP: netem.IPv4{
			TTL:      ttl,
			ID:       ipid,
			Flags:    d.Inject.IPFlags,
			Src:      endpoint,
			Dst:      trigger.IP.Src,
			Protocol: netem.ProtoTCP,
		},
		TCP: &netem.TCP{
			SrcPort: trigger.TCP.DstPort,
			DstPort: trigger.TCP.SrcPort,
			Seq:     trigger.TCP.Ack,
			Ack:     trigger.TCP.Seq + uint32(len(trigger.Payload)),
			Window:  d.Inject.TCPWindow,
			Options: d.Inject.Options,
		},
	}
	switch d.Action {
	case ActionRST:
		p := base.Clone()
		p.TCP.Flags = netem.TCPRst | netem.TCPAck
		return []*netem.Packet{p}
	case ActionFIN:
		p := base.Clone()
		p.TCP.Flags = netem.TCPFin | netem.TCPAck
		return []*netem.Packet{p}
	case ActionBlockpage:
		page := base.Clone()
		page.TCP.Flags = netem.TCPPsh | netem.TCPAck
		page.Payload = []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: close\r\n\r\n" + d.Blockpage)
		fin := base.Clone()
		fin.TCP.Flags = netem.TCPFin | netem.TCPAck
		fin.TCP.Seq += uint32(len(page.Payload))
		return []*netem.Packet{page, fin}
	default:
		return nil
	}
}

// Clone returns a copy of the state for a network clone: residual windows,
// injection counts and reassembly streams are copied, so traffic through
// either copy never shows on the other. The trigger memo is not copied:
// it is a pure function of the device's configuration, filled lazily, so
// sharing it would race and the copy refills its own. A state holding
// none of the three clones to nil, so copying the flow state of a network
// costs only what its measurements left behind.
func (st *FlowState) Clone() *FlowState {
	if len(st.residual) == 0 && len(st.injects) == 0 && len(st.streams) == 0 {
		return nil
	}
	c := &FlowState{residual: slices.Clone(st.residual)}
	if len(st.injects) > 0 {
		c.injects = maps.Clone(st.injects)
	}
	if len(st.streams) > 0 {
		c.streams = make(map[flowKey][]byte, len(st.streams))
		for k, v := range st.streams {
			c.streams[k] = slices.Clone(v)
		}
	}
	return c
}

// Reset clears flow tracking (between independent measurements). The
// residual table keeps its storage for the next measurement, and the
// trigger memo, which no traffic invalidates, is kept whole.
func (st *FlowState) Reset() {
	st.residual = st.residual[:0]
	st.injects = nil
	st.streams = nil
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s[%s %s %s]", d.ID, d.Vendor, d.Placement, d.Action)
}

// TCPPersonality is the TCP/IP stack behaviour an Nmap-style scan observes
// from a device's management address — SYN-ACK window/TTL and the
// don't-fragment bit. The values are stable per product line, which is why
// active-probing fingerprint work ([43], [66] in the paper) keys on them.
type TCPPersonality struct {
	SYNACKWindow uint16
	SYNACKTTL    uint8
	DF           bool
}

// DefaultHostPersonality is the personality of a generic Linux server,
// returned for probed addresses that are not devices.
var DefaultHostPersonality = TCPPersonality{SYNACKWindow: 64240, SYNACKTTL: 64, DF: true}
