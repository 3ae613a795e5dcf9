package centrace

import (
	"cendev/internal/blockpage"
	"cendev/internal/dnsgram"
	"cendev/internal/netem"
)

// DNS probing support — the paper's protocol extension (§4.1, §8). A DNS
// CenTrace probe is a TTL-limited UDP A query; the terminating responses
// are a resolver answer (KindData), an injected forged answer (KindData
// matching the bogus-address list), or repeated drops.

// probeOnceDNS sends one TTL-limited DNS query and classifies the result.
func (p *Prober) probeOnceDNS(domain string, ttl int) ProbeObs {
	obs := ProbeObs{TTL: ttl, Kind: KindTimeout}
	query := dnsgram.NewQuery(uint16(ttl), domain)
	payload := query.Serialize()
	ds := p.Net.SendUDP(p.Client, p.Endpoint, 53, payload, uint8(ttl))
	for _, d := range ds {
		pkt := d.Packet
		switch {
		case pkt.ICMP != nil && pkt.ICMP.Type == netem.ICMPTimeExceeded:
			if obs.Kind == KindTimeout {
				obs.Kind = KindICMP
				obs.From = pkt.IP.Src
				// The as-sent template, built as probeOnce builds its TCP
				// one.
				sent := &p.sentUDP
				sent.FillUDP(p.Client.Addr, p.Endpoint.Addr, 0, 53, payload)
				sent.IP.TTL = uint8(ttl)
				obs.recordQuote(pkt.ICMP, sent)
			} else {
				obs.GotICMPAlongside = true
				obs.ICMPFrom = pkt.IP.Src
			}
		case pkt.UDP != nil && pkt.IP.Src == p.Endpoint.Addr && len(pkt.Payload) > 0:
			if obs.Kind == KindData {
				continue // first answer wins the race, like a real stub resolver
			}
			if obs.Kind == KindICMP {
				obs.GotICMPAlongside = true
				obs.ICMPFrom = obs.From
			}
			obs.From = pkt.IP.Src
			obs.Kind = KindData
			// pkt is pooled and reclaimed at the next Transmit; dnsBlocked
			// parses this after the whole aggregate completes, so copy.
			obs.Payload = append([]byte(nil), pkt.Payload...)
			obs.Injected = &InjectedFeatures{
				TTL:     pkt.IP.TTL,
				IPID:    pkt.IP.ID,
				IPFlags: pkt.IP.Flags,
			}
		}
	}
	return obs
}

// dnsBlocked reports whether a KindData DNS response is censorship: a
// forged answer carrying a known injection address (the DNS analog of the
// known-blockpage rule, §4.1).
func dnsBlocked(payload []byte) bool {
	resp, err := dnsgram.ParseResponse(payload)
	if err != nil {
		return false
	}
	return blockpage.MatchDNSAnswers(resp.Answers)
}
