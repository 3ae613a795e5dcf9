package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// TCPFlags holds the flag bits of a TCP header.
type TCPFlags uint8

// TCP header flag bits.
const (
	TCPFin TCPFlags = 1 << 0
	TCPSyn TCPFlags = 1 << 1
	TCPRst TCPFlags = 1 << 2
	TCPPsh TCPFlags = 1 << 3
	TCPAck TCPFlags = 1 << 4
	TCPUrg TCPFlags = 1 << 5
)

// String implements fmt.Stringer, rendering flags in tcpdump order.
func (f TCPFlags) String() string {
	var parts []string
	for _, fl := range []struct {
		bit  TCPFlags
		name string
	}{
		{TCPSyn, "SYN"}, {TCPFin, "FIN"}, {TCPRst, "RST"},
		{TCPPsh, "PSH"}, {TCPAck, "ACK"}, {TCPUrg, "URG"},
	} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

// TCPOptionKind identifies a TCP option.
type TCPOptionKind uint8

// TCP option kinds used by the simulator and by middlebox fingerprinting.
const (
	TCPOptEnd       TCPOptionKind = 0
	TCPOptNop       TCPOptionKind = 1
	TCPOptMSS       TCPOptionKind = 2
	TCPOptWScale    TCPOptionKind = 3
	TCPOptSACKPerm  TCPOptionKind = 4
	TCPOptTimestamp TCPOptionKind = 8
)

// TCPOption is a single TCP option as kind plus raw data (excluding the kind
// and length octets).
type TCPOption struct {
	Kind TCPOptionKind
	Data []byte
}

// TCPHeaderLen is the length in bytes of a TCP header without options.
const TCPHeaderLen = 20

// TCP is a TCP header. Checksum is computed by SerializeTo using the
// enclosing IPv4 addresses; decoded values are preserved.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16 // filled by SerializeTo; kept on decode
	Urgent           uint16
	Options          []TCPOption
}

var errShortTCP = errors.New("netem: truncated TCP header")

// headerLen returns the TCP header length including padded options.
func (t *TCP) headerLen() int {
	optLen := 0
	for _, o := range t.Options {
		switch o.Kind {
		case TCPOptEnd, TCPOptNop:
			optLen++
		default:
			optLen += 2 + len(o.Data)
		}
	}
	// Pad to a 4-byte boundary.
	return TCPHeaderLen + (optLen+3)/4*4
}

// SerializeTo appends the wire representation of the header followed by
// payload to b, computing the checksum over the IPv4 pseudo-header formed
// from src and dst. Returns the extended slice.
func (t *TCP) SerializeTo(b []byte, src, dst [4]byte, payload []byte) []byte {
	start := len(b)
	b = t.serializeHeaderTo(b)
	b = append(b, payload...)
	seg := b[start:]
	init := pseudoHeaderSum(src, dst, uint8(ProtoTCP), len(seg))
	t.Checksum = checksumWithInitial(init, seg)
	binary.BigEndian.PutUint16(seg[16:], t.Checksum)
	return b
}

// serializeHeaderTo appends the header (including padded options) to b with
// the checksum field zeroed; the caller computes and patches the checksum
// once the covered range is known.
func (t *TCP) serializeHeaderTo(b []byte) []byte {
	hl := t.headerLen()
	start := len(b)
	b = append(b, make([]byte, hl)...)
	hdr := b[start:]
	binary.BigEndian.PutUint16(hdr[0:], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:], t.Ack)
	hdr[12] = uint8(hl/4) << 4
	hdr[13] = uint8(t.Flags)
	binary.BigEndian.PutUint16(hdr[14:], t.Window)
	binary.BigEndian.PutUint16(hdr[18:], t.Urgent)
	off := TCPHeaderLen
	for _, o := range t.Options {
		switch o.Kind {
		case TCPOptEnd, TCPOptNop:
			hdr[off] = uint8(o.Kind)
			off++
		default:
			hdr[off] = uint8(o.Kind)
			hdr[off+1] = uint8(2 + len(o.Data))
			copy(hdr[off+2:], o.Data)
			off += 2 + len(o.Data)
		}
	}
	// Remaining bytes up to hl are zero (end-of-options padding).
	return b
}

// DecodeFromBytes parses a TCP header from data and returns the header
// length consumed (including options). Option data is copied out of data.
func (t *TCP) DecodeFromBytes(data []byte) (int, error) {
	if len(data) < TCPHeaderLen {
		return 0, errShortTCP
	}
	hl := int(data[12]>>4) * 4
	if hl < TCPHeaderLen || len(data) < hl {
		return 0, errShortTCP
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	t.Flags = TCPFlags(data[13])
	t.Window = binary.BigEndian.Uint16(data[14:])
	t.Checksum = binary.BigEndian.Uint16(data[16:])
	t.Urgent = binary.BigEndian.Uint16(data[18:])
	t.Options = nil
	opts := data[TCPHeaderLen:hl]
	for i := 0; i < len(opts); {
		kind := TCPOptionKind(opts[i])
		switch kind {
		case TCPOptEnd:
			i = len(opts)
		case TCPOptNop:
			t.Options = append(t.Options, TCPOption{Kind: kind})
			i++
		default:
			if i+1 >= len(opts) {
				return 0, errShortTCP
			}
			l := int(opts[i+1])
			if l < 2 || i+l > len(opts) {
				return 0, errShortTCP
			}
			d := append([]byte(nil), opts[i+2:i+l]...)
			t.Options = append(t.Options, TCPOption{Kind: kind, Data: d})
			i += l
		}
	}
	return hl, nil
}

// OptionKinds returns the ordered list of option kinds present, a feature
// used when fingerprinting injected packets (§7.1 of the paper).
func (t *TCP) OptionKinds() []TCPOptionKind {
	kinds := make([]TCPOptionKind, len(t.Options))
	for i, o := range t.Options {
		kinds[i] = o.Kind
	}
	return kinds
}

// String implements fmt.Stringer.
func (t *TCP) String() string {
	return fmt.Sprintf("TCP %d > %d [%s] seq=%d ack=%d win=%d",
		t.SrcPort, t.DstPort, t.Flags, t.Seq, t.Ack, t.Window)
}
