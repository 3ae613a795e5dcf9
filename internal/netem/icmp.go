package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ICMPType identifies the type of an ICMP message.
type ICMPType uint8

// ICMP message types used by the simulator.
const (
	ICMPEchoReply      ICMPType = 0
	ICMPDestUnreach    ICMPType = 3
	ICMPEcho           ICMPType = 8
	ICMPTimeExceeded   ICMPType = 11
	ICMPParamProblem   ICMPType = 12
	icmpHeaderLenBytes          = 8
)

// String implements fmt.Stringer.
func (t ICMPType) String() string {
	switch t {
	case ICMPEchoReply:
		return "EchoReply"
	case ICMPDestUnreach:
		return "DestUnreachable"
	case ICMPEcho:
		return "Echo"
	case ICMPTimeExceeded:
		return "TimeExceeded"
	case ICMPParamProblem:
		return "ParameterProblem"
	default:
		return fmt.Sprintf("ICMPType(%d)", uint8(t))
	}
}

// ICMP is an ICMP message. For error messages (Time Exceeded, Destination
// Unreachable) Quoted carries the quoted bytes of the offending packet: the
// full IP header plus at least the first 64 bits of its payload (RFC 792),
// or as much as the router chose to include (RFC 1812 permits quoting the
// entire packet).
type ICMP struct {
	Type     ICMPType
	Code     uint8
	Checksum uint16 // filled by SerializeTo; kept on decode
	Rest     uint32 // unused/identifier field (bytes 4..8)
	Quoted   []byte
}

var errShortICMP = errors.New("netem: truncated ICMP message")

// SerializeTo appends the wire representation to b and returns the extended
// slice.
func (m *ICMP) SerializeTo(b []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, icmpHeaderLenBytes)...)
	b = append(b, m.Quoted...)
	msg := b[start:]
	msg[0] = uint8(m.Type)
	msg[1] = m.Code
	binary.BigEndian.PutUint32(msg[4:], m.Rest)
	m.Checksum = Checksum(msg)
	binary.BigEndian.PutUint16(msg[2:], m.Checksum)
	return b
}

// DecodeFromBytes parses an ICMP message from data, consuming all of it.
// The quoted bytes are copied out of data.
func (m *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < icmpHeaderLenBytes {
		return errShortICMP
	}
	m.Type = ICMPType(data[0])
	m.Code = data[1]
	m.Checksum = binary.BigEndian.Uint16(data[2:])
	m.Rest = binary.BigEndian.Uint32(data[4:])
	m.Quoted = append([]byte(nil), data[icmpHeaderLenBytes:]...)
	return nil
}

// QuotedPacket decodes the quoted bytes of an ICMP error message into a
// partial packet: the quoted IPv4 header, the quoted transport prefix, and
// how many bytes of transport-layer data were quoted. Returns an error when
// no valid IPv4 header is quoted.
func (m *ICMP) QuotedPacket() (*QuotedPacket, error) {
	q := new(QuotedPacket)
	if err := m.DecodeQuote(q, new(TCP)); err != nil {
		return nil, err
	}
	return q, nil
}

// DecodeQuote is QuotedPacket decoding into caller-owned storage: q
// receives the quote, and when a full TCP header is quoted tcp receives it
// and q.TCP points at it (q.TCP is nil otherwise). The copy of the quoted
// transport bytes is its only allocation, so a caller that co-locates q
// and tcp with its own per-quote data pays one allocation for all of it.
func (m *ICMP) DecodeQuote(q *QuotedPacket, tcp *TCP) error {
	n, err := q.IP.DecodeFromBytes(m.Quoted)
	if err != nil {
		return fmt.Errorf("netem: decoding quoted packet: %w", err)
	}
	q.TransportBytes = append([]byte(nil), m.Quoted[n:]...)
	q.TCP = nil
	if q.IP.Protocol == ProtoTCP && len(q.TransportBytes) >= TCPHeaderLen {
		if _, err := tcp.DecodeFromBytes(q.TransportBytes); err == nil {
			q.TCP = tcp
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (m *ICMP) String() string {
	return fmt.Sprintf("ICMP %s code=%d quoted=%dB", m.Type, m.Code, len(m.Quoted))
}

// QuotedPacket is the partially decoded offending packet carried in an ICMP
// error. TCP is non-nil only when enough bytes were quoted to parse a full
// TCP header (RFC 1812-style quoting); RFC 792 routers quote only 8 bytes of
// the transport header, enough for ports and sequence number.
type QuotedPacket struct {
	IP             IPv4
	TransportBytes []byte
	TCP            *TCP
}

// QuotedPorts extracts source and destination ports from the quoted
// transport bytes. Works for both RFC 792 (8-byte) and fuller quotes.
func (q *QuotedPacket) QuotedPorts() (src, dst uint16, ok bool) {
	if len(q.TransportBytes) < 4 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint16(q.TransportBytes[0:]),
		binary.BigEndian.Uint16(q.TransportBytes[2:]), true
}

// QuotedSeq extracts the TCP sequence number from the quoted transport
// bytes when present.
func (q *QuotedPacket) QuotedSeq() (uint32, bool) {
	if len(q.TransportBytes) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint32(q.TransportBytes[4:]), true
}

// FollowsRFC792Only reports whether the quote contains exactly the minimum
// RFC 792 payload: 64 bits (8 bytes) of the original datagram's data.
func (q *QuotedPacket) FollowsRFC792Only() bool {
	return len(q.TransportBytes) == 8
}
