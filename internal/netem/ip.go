package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Protocol identifies the transport protocol carried by an IPv4 packet.
type Protocol uint8

// Transport protocol numbers (IANA).
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// IPFlags holds the three-bit flag field of an IPv4 header.
type IPFlags uint8

// IPv4 header flag bits.
const (
	IPFlagMF IPFlags = 1 << 0 // more fragments
	IPFlagDF IPFlags = 1 << 1 // don't fragment
	IPFlagEv IPFlags = 1 << 2 // evil bit (reserved; must be zero in the wild)
)

// String implements fmt.Stringer.
func (f IPFlags) String() string {
	s := ""
	if f&IPFlagEv != 0 {
		s += "R"
	}
	if f&IPFlagDF != 0 {
		s += "DF"
	}
	if f&IPFlagMF != 0 {
		s += "MF"
	}
	if s == "" {
		return "-"
	}
	return s
}

// IPv4HeaderLen is the length in bytes of an IPv4 header without options.
const IPv4HeaderLen = 20

// IPv4 is an IPv4 header without options. TotalLength and Checksum are
// computed during serialization; decoded values are preserved so that
// quoted-packet comparison can detect middlebox rewrites.
type IPv4 struct {
	TOS         uint8
	TotalLength uint16 // filled by SerializeTo; kept on decode
	ID          uint16
	Flags       IPFlags
	FragOffset  uint16 // in 8-byte units
	TTL         uint8
	Protocol    Protocol
	Checksum    uint16 // filled by SerializeTo; kept on decode
	Src, Dst    netip.Addr
}

var (
	errShortIP    = errors.New("netem: truncated IPv4 header")
	errNotIPv4    = errors.New("netem: not an IPv4 packet")
	errBadVersion = errors.New("netem: bad IP version")
)

// SerializeTo appends the wire representation of the header to b and returns
// the extended slice. payloadLen is the number of bytes following the header;
// it determines TotalLength. The Checksum and TotalLength fields of h are
// updated to the serialized values.
func (h *IPv4) SerializeTo(b []byte, payloadLen int) []byte {
	h.TotalLength = uint16(IPv4HeaderLen + payloadLen)
	start := len(b)
	b = append(b, make([]byte, IPv4HeaderLen)...)
	hdr := b[start:]
	hdr[0] = 4<<4 | IPv4HeaderLen/4
	hdr[1] = h.TOS
	binary.BigEndian.PutUint16(hdr[2:], h.TotalLength)
	binary.BigEndian.PutUint16(hdr[4:], h.ID)
	binary.BigEndian.PutUint16(hdr[6:], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	hdr[8] = h.TTL
	hdr[9] = uint8(h.Protocol)
	src := h.Src.As4()
	dst := h.Dst.As4()
	copy(hdr[12:16], src[:])
	copy(hdr[16:20], dst[:])
	h.Checksum = Checksum(hdr)
	binary.BigEndian.PutUint16(hdr[10:], h.Checksum)
	return b
}

// DecodeFromBytes parses an IPv4 header from the front of data and returns
// the header length consumed. The checksum is not verified here; use
// VerifyChecksum when integrity matters.
func (h *IPv4) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < IPv4HeaderLen {
		return 0, errShortIP
	}
	if data[0]>>4 != 4 {
		return 0, errBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return 0, errNotIPv4
	}
	if len(data) < ihl {
		return 0, errShortIP
	}
	h.TOS = data[1]
	h.TotalLength = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	h.Flags = IPFlags(ff >> 13)
	h.FragOffset = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = Protocol(data[9])
	h.Checksum = binary.BigEndian.Uint16(data[10:])
	h.Src = netip.AddrFrom4([4]byte(data[12:16]))
	h.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return ihl, nil
}

// fill rewrites h as the header IPv4{TTL: 64, Src: src, Dst: dst,
// Protocol: proto}, field by field (see Packet.fill).
func (h *IPv4) fill(src, dst netip.Addr, proto Protocol) {
	h.TOS, h.TotalLength, h.ID, h.Flags, h.FragOffset = 0, 0, 0, 0, 0
	h.TTL, h.Protocol, h.Checksum = 64, proto, 0
	setAddr(&h.Src, src)
	setAddr(&h.Dst, dst)
}

// copyFrom is *h = *s, field by field (see Packet.fill).
func (h *IPv4) copyFrom(s *IPv4) {
	h.TOS, h.TotalLength, h.ID, h.Flags, h.FragOffset = s.TOS, s.TotalLength, s.ID, s.Flags, s.FragOffset
	h.TTL, h.Protocol, h.Checksum = s.TTL, s.Protocol, s.Checksum
	setAddr(&h.Src, s.Src)
	setAddr(&h.Dst, s.Dst)
}

// setAddr stores a in *dst unless it is already there: the store writes
// netip.Addr's pointer, which costs a write barrier while the GC marks.
func setAddr(dst *netip.Addr, a netip.Addr) {
	if *dst != a {
		*dst = a
	}
}

// VerifyChecksum reports whether the serialized header bytes carry a valid
// Internet checksum.
func (h *IPv4) VerifyChecksum() bool {
	buf := h.SerializeTo(nil, int(h.TotalLength)-IPv4HeaderLen)
	return binary.BigEndian.Uint16(buf[10:]) == h.Checksum
}

// String implements fmt.Stringer.
func (h *IPv4) String() string {
	return fmt.Sprintf("IPv4 %s > %s ttl=%d proto=%s tos=%#x id=%d flags=%s",
		h.Src, h.Dst, h.TTL, h.Protocol, h.TOS, h.ID, h.Flags)
}
