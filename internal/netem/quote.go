package netem

import (
	"bytes"
	"sort"
	"strings"
)

// QuoteDelta describes fields of a sent probe that differ in the packet
// quoted back by a router's ICMP error. Following Tracebox, CenTrace uses
// these deltas both to detect middlebox rewrites on the path and as
// clustering features (§4.3, §7.1: 32.06% of quotes differed in TOS; one
// differed in IP flags).
type QuoteDelta struct {
	TOSChanged       bool
	IPFlagsChanged   bool
	IPIDChanged      bool
	SeqChanged       bool
	PortsChanged     bool
	PayloadTruncated bool // quote carries less application data than sent
	PayloadChanged   bool // quoted application bytes differ from sent bytes
	RFC792Only       bool // router quoted only the 64-bit minimum
	TTLAtQuote       uint8
	QuotedPayloadLen int
}

// CompareQuote compares the probe as sent with the quoted packet from an
// ICMP error. TTL is excluded: it legitimately differs by the hop count.
func CompareQuote(sent *Packet, quoted *QuotedPacket) QuoteDelta {
	d := QuoteDelta{
		TOSChanged:       sent.IP.TOS != quoted.IP.TOS,
		IPFlagsChanged:   sent.IP.Flags != quoted.IP.Flags,
		IPIDChanged:      sent.IP.ID != quoted.IP.ID,
		RFC792Only:       quoted.FollowsRFC792Only(),
		TTLAtQuote:       quoted.IP.TTL,
		QuotedPayloadLen: len(quoted.TransportBytes),
	}
	if sent.TCP != nil {
		if src, dst, ok := quoted.QuotedPorts(); ok {
			d.PortsChanged = src != sent.TCP.SrcPort || dst != sent.TCP.DstPort
		}
		if seq, ok := quoted.QuotedSeq(); ok {
			d.SeqChanged = seq != sent.TCP.Seq
		}
		// Application payload comparison only possible with RFC 1812-style
		// quotes that include bytes past the TCP header.
		sentHL := sent.TCP.headerLen()
		if len(quoted.TransportBytes) > sentHL {
			quotedApp := quoted.TransportBytes[sentHL:]
			if len(quotedApp) < len(sent.Payload) {
				d.PayloadTruncated = true
			}
			n := len(quotedApp)
			if n > len(sent.Payload) {
				n = len(sent.Payload)
			}
			d.PayloadChanged = !bytes.Equal(quotedApp[:n], sent.Payload[:n])
		} else if len(sent.Payload) > 0 {
			d.PayloadTruncated = true
		}
	}
	return d
}

// ChangedFields lists the names of fields that differ, in stable order, for
// use as one-hot clustering features.
func (d *QuoteDelta) ChangedFields() []string {
	var fields []string
	add := func(cond bool, name string) {
		if cond {
			fields = append(fields, name)
		}
	}
	add(d.TOSChanged, "IPTOSChanged")
	add(d.IPFlagsChanged, "IPFlagsChanged")
	add(d.IPIDChanged, "IPIDChanged")
	add(d.SeqChanged, "TCPSeqChanged")
	add(d.PortsChanged, "TCPPortsChanged")
	add(d.PayloadChanged, "PayloadChanged")
	sort.Strings(fields)
	return fields
}

// Any reports whether any field (other than benign truncation) changed.
func (d *QuoteDelta) Any() bool {
	return d.TOSChanged || d.IPFlagsChanged || d.IPIDChanged ||
		d.SeqChanged || d.PortsChanged || d.PayloadChanged
}

// String implements fmt.Stringer.
func (d QuoteDelta) String() string {
	f := d.ChangedFields()
	if len(f) == 0 {
		return "no-delta"
	}
	return strings.Join(f, ",")
}
