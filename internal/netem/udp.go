package netem

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// UDPHeaderLen is the length in bytes of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP header. Length and Checksum are computed by SerializeTo;
// decoded values are preserved. UDP carries the DNS measurement extension
// (the paper's §8 future-work protocol).
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16 // filled by SerializeTo; kept on decode
	Checksum         uint16 // filled by SerializeTo; kept on decode
}

var errShortUDP = errors.New("netem: truncated UDP header")

// SerializeTo appends the wire representation of the header followed by
// payload to b, computing the checksum over the IPv4 pseudo-header.
func (u *UDP) SerializeTo(b []byte, src, dst [4]byte, payload []byte) []byte {
	u.Length = uint16(UDPHeaderLen + len(payload))
	start := len(b)
	b = append(b, make([]byte, UDPHeaderLen)...)
	b = append(b, payload...)
	hdr := b[start:]
	binary.BigEndian.PutUint16(hdr[0:], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:], u.DstPort)
	binary.BigEndian.PutUint16(hdr[4:], u.Length)
	seg := b[start:]
	init := pseudoHeaderSum(src, dst, uint8(ProtoUDP), len(seg))
	u.Checksum = checksumWithInitial(init, seg)
	if u.Checksum == 0 {
		u.Checksum = 0xffff // RFC 768: zero means "no checksum"
	}
	binary.BigEndian.PutUint16(hdr[6:], u.Checksum)
	return b
}

// DecodeFromBytes parses a UDP header from data and returns the header
// length consumed.
func (u *UDP) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < UDPHeaderLen {
		return 0, errShortUDP
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:])
	u.DstPort = binary.BigEndian.Uint16(data[2:])
	u.Length = binary.BigEndian.Uint16(data[4:])
	u.Checksum = binary.BigEndian.Uint16(data[6:])
	return UDPHeaderLen, nil
}

// udpPacket co-locates a Packet with its UDP header so one allocation
// serves both.
type udpPacket struct {
	p Packet
	u UDP
}

// NewUDPPacket builds a UDP packet with defaults suitable for the
// simulator.
func NewUDPPacket(src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) *Packet {
	x := &udpPacket{
		p: Packet{IP: IPv4{TTL: 64, Src: src, Dst: dst, Protocol: ProtoUDP}, Payload: payload},
		u: UDP{SrcPort: srcPort, DstPort: dstPort},
	}
	x.p.UDP = &x.u
	return &x.p
}

// FillUDP rewrites p in place as a UDP packet with the same defaults as
// NewUDPPacket, reusing p's UDP struct when it has one. The payload is
// aliased, not copied. p must own its buffers (see Reset).
func (p *Packet) FillUDP(src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) {
	u := p.UDP
	if u == nil {
		u = &UDP{}
	}
	*u = UDP{SrcPort: srcPort, DstPort: dstPort}
	p.fill(src, dst, ProtoUDP, nil, u, nil, payload)
}
