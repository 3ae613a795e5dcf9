package middlebox

import (
	"net/netip"
	"time"

	"cendev/internal/dnsgram"
	"cendev/internal/netem"
)

// DNS-injection support: the protocol extension the paper names as future
// work (§8: "devices that perform DNS packet injection"). A DNS-capable
// device extracts the QNAME from UDP port-53 queries, matches it against
// its rules, and either drops the query or injects a spoofed response
// carrying a bogus A record — the classic on-path injector design.

// BogusAddrs are well-known injection answer addresses used by deployed
// DNS censorship systems; the blockpage package's MatchDNSAnswer consults
// the same list.
var BogusAddrs = []netip.Addr{
	netip.MustParseAddr("10.10.34.34"),  // Iran-style injection answer
	netip.MustParseAddr("198.51.100.6"), // sinkhole
	netip.MustParseAddr("127.0.0.1"),    // localhost redirection
}

// inspectDNS handles UDP packets for Inspect, writing into a zeroed v. It
// mirrors Inspect's TCP flow but builds DNS responses instead of TCP
// injections.
func (d *Device) inspectDNS(v *Verdict, st *FlowState, pkt *netem.Packet, endpoint netip.Addr, now time.Duration) {
	if pkt.UDP == nil || pkt.UDP.DstPort != 53 {
		return
	}
	// Residual state applies to DNS flows too.
	if d.ResidualWindow > 0 && st.inResidual(pkt, now) {
		v.Triggered, v.DropOriginal, v.Residual = true, d.Placement == InPath, true
		return
	}
	q, err := dnsgram.ParseQuery(pkt.Payload)
	if err != nil || !d.Rules.Matches(q.Name) {
		return
	}
	if d.ResidualWindow > 0 {
		st.flagResidual(pkt, now+d.ResidualWindow)
	}
	v.Triggered, v.DropOriginal = true, d.Placement == InPath
	if d.Action == ActionDrop {
		return
	}
	bogus := d.BogusA
	if !bogus.IsValid() {
		bogus = BogusAddrs[0]
	}
	resp := dnsgram.Answer(q, bogus)
	ttl := d.Inject.TTL
	if ttl == 0 {
		ttl = 64
	}
	ipid := d.Inject.IPID
	if d.CopyTTL {
		ttl = pkt.IP.TTL
		ipid = pkt.IP.ID
	}
	inj := &netem.Packet{
		IP: netem.IPv4{
			TTL: ttl, ID: ipid, Flags: d.Inject.IPFlags,
			Src: endpoint, Dst: pkt.IP.Src, Protocol: netem.ProtoUDP,
		},
		UDP:     &netem.UDP{SrcPort: 53, DstPort: pkt.UDP.SrcPort},
		Payload: resp.Serialize(),
	}
	v.Injected = []*netem.Packet{inj}
}
