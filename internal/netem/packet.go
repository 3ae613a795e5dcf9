package netem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Packet is a full IPv4 packet: one IP header, exactly one transport layer
// (TCP, UDP, or ICMP), and an optional application payload (TCP/UDP only).
type Packet struct {
	IP      IPv4
	TCP     *TCP  // exactly one of TCP, UDP, ICMP is non-nil
	UDP     *UDP  // exactly one of TCP, UDP, ICMP is non-nil
	ICMP    *ICMP // exactly one of TCP, UDP, ICMP is non-nil
	Payload []byte
}

var errNoTransport = errors.New("netem: packet has no transport layer")

// Serialize renders the packet to wire bytes, computing lengths and
// checksums in both headers.
func (p *Packet) Serialize() ([]byte, error) {
	return p.SerializeTo(nil)
}

// SerializeTo appends the full wire representation of the packet to b and
// returns the extended slice, computing lengths and checksums in both
// headers. Passing a scratch buffer (b[:0]) serializes with zero
// allocations once the buffer has grown to packet size.
func (p *Packet) SerializeTo(b []byte) ([]byte, error) {
	return p.serializeTo(b, -1)
}

// serializeTo appends the IP header plus the transport segment to b. When
// maxSeg >= 0 only the first maxSeg bytes of the transport segment are
// emitted, but lengths and checksums are still those of the full packet —
// the output is byte-identical to the same range of a full serialization,
// which is exactly what an ICMP quote of a packet prefix must carry. A TCP
// quote that ends before the checksum field (an RFC 792 router's 8 bytes)
// skips summing the segment and leaves TCP.Checksum as it was.
func (p *Packet) serializeTo(b []byte, maxSeg int) ([]byte, error) {
	switch {
	case p.TCP != nil:
		t := p.TCP
		p.IP.Protocol = ProtoTCP
		segLen := t.headerLen() + len(p.Payload)
		b = p.IP.SerializeTo(b, segLen)
		segStart := len(b)
		b = t.serializeHeaderTo(b)
		if maxSeg < 0 || maxSeg > tcpChecksumOffset {
			src, dst := p.IP.Src.As4(), p.IP.Dst.As4()
			sum := pseudoHeaderSum(src, dst, uint8(ProtoTCP), segLen)
			sum = addToSum(sum, b[segStart:])
			sum = addToSum(sum, p.Payload)
			t.Checksum = foldSum(sum)
			binary.BigEndian.PutUint16(b[segStart+tcpChecksumOffset:], t.Checksum)
		}
		return appendSegTail(b, segStart, p.Payload, maxSeg), nil
	case p.UDP != nil:
		u := p.UDP
		p.IP.Protocol = ProtoUDP
		segLen := UDPHeaderLen + len(p.Payload)
		u.Length = uint16(segLen)
		b = p.IP.SerializeTo(b, segLen)
		segStart := len(b)
		b = append(b, make([]byte, UDPHeaderLen)...)
		hdr := b[segStart:]
		binary.BigEndian.PutUint16(hdr[0:], u.SrcPort)
		binary.BigEndian.PutUint16(hdr[2:], u.DstPort)
		binary.BigEndian.PutUint16(hdr[4:], u.Length)
		src, dst := p.IP.Src.As4(), p.IP.Dst.As4()
		sum := pseudoHeaderSum(src, dst, uint8(ProtoUDP), segLen)
		sum = addToSum(sum, hdr)
		sum = addToSum(sum, p.Payload)
		u.Checksum = foldSum(sum)
		if u.Checksum == 0 {
			u.Checksum = 0xffff // RFC 768: zero means "no checksum"
		}
		binary.BigEndian.PutUint16(hdr[6:], u.Checksum)
		return appendSegTail(b, segStart, p.Payload, maxSeg), nil
	case p.ICMP != nil:
		m := p.ICMP
		p.IP.Protocol = ProtoICMP
		segLen := icmpHeaderLenBytes + len(m.Quoted)
		b = p.IP.SerializeTo(b, segLen)
		segStart := len(b)
		b = append(b, make([]byte, icmpHeaderLenBytes)...)
		msg := b[segStart:]
		msg[0] = uint8(m.Type)
		msg[1] = m.Code
		binary.BigEndian.PutUint32(msg[4:], m.Rest)
		sum := addToSum(0, msg)
		sum = addToSum(sum, m.Quoted)
		m.Checksum = foldSum(sum)
		binary.BigEndian.PutUint16(msg[2:], m.Checksum)
		return appendSegTail(b, segStart, m.Quoted, maxSeg), nil
	default:
		return nil, errNoTransport
	}
}

// appendSegTail appends the transport payload (or quote) tail to b, whose
// transport segment began at segStart, truncating the segment to maxSeg
// bytes when maxSeg >= 0.
func appendSegTail(b []byte, segStart int, tail []byte, maxSeg int) []byte {
	if maxSeg < 0 {
		return append(b, tail...)
	}
	hdrLen := len(b) - segStart
	if maxSeg <= hdrLen {
		return b[:segStart+maxSeg]
	}
	if want := maxSeg - hdrLen; want < len(tail) {
		tail = tail[:want]
	}
	return append(b, tail...)
}

// DecodePacket parses wire bytes into a Packet. Payload, quoted bytes, and
// option data are copied, so the packet stays valid after data is reused.
func DecodePacket(data []byte) (*Packet, error) {
	p := &Packet{}
	n, err := p.IP.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	rest := data[n:]
	switch p.IP.Protocol {
	case ProtoTCP:
		p.TCP = &TCP{}
		hl, err := p.TCP.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), rest[hl:]...)
	case ProtoUDP:
		p.UDP = &UDP{}
		hl, err := p.UDP.DecodeFromBytes(rest)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), rest[hl:]...)
	case ProtoICMP:
		p.ICMP = &ICMP{}
		if err := p.ICMP.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("netem: unsupported protocol %s", p.IP.Protocol)
	}
	return p, nil
}

// Reset clears the packet for reuse while keeping its owned allocations:
// transport header structs stay attached (zeroed) and slice capacities are
// retained. A Reset packet is ready for CloneInto with no fresh
// allocations, making Packet values sync.Pool-compatible.
//
// Reset must only be called on packets whose buffers the packet owns. A
// packet populated by FillTCP or FillUDP borrows its Payload storage from
// the caller; Reset would retain that borrowed capacity and a later
// CloneInto would scribble over the lender's bytes.
func (p *Packet) Reset() {
	p.IP = IPv4{}
	p.Payload = p.Payload[:0]
	if p.TCP != nil {
		opts := p.TCP.Options[:0]
		*p.TCP = TCP{Options: opts}
	}
	if p.UDP != nil {
		*p.UDP = UDP{}
	}
	if p.ICMP != nil {
		quoted := p.ICMP.Quoted[:0]
		*p.ICMP = ICMP{Quoted: quoted}
	}
}

// CloneInto deep-copies p into q, reusing q's existing allocations
// (transport structs, payload and quote capacity) where possible. q must
// own its buffers — see Reset for the aliasing hazard. q ends up
// semantically identical to a Clone of p but with zero allocations in
// steady state; it shares no mutable memory with p. Like fill, it copies
// field by field.
func (p *Packet) CloneInto(q *Packet) {
	q.IP.copyFrom(&p.IP)
	q.Payload = append(q.Payload[:0], p.Payload...)
	if s := p.TCP; s != nil {
		t := q.TCP
		if t == nil {
			t = &TCP{}
			q.TCP = t
		}
		t.SrcPort, t.DstPort, t.Seq, t.Ack = s.SrcPort, s.DstPort, s.Seq, s.Ack
		t.Flags, t.Window, t.Checksum, t.Urgent = s.Flags, s.Window, s.Checksum, s.Urgent
		t.Options = t.Options[:0]
		for _, o := range s.Options {
			t.Options = append(t.Options, TCPOption{Kind: o.Kind, Data: append([]byte(nil), o.Data...)})
		}
	} else if q.TCP != nil {
		q.TCP = nil
	}
	if p.UDP != nil {
		if q.UDP == nil {
			q.UDP = &UDP{}
		}
		*q.UDP = *p.UDP
	} else if q.UDP != nil {
		q.UDP = nil
	}
	if s := p.ICMP; s != nil {
		m := q.ICMP
		if m == nil {
			m = &ICMP{}
			q.ICMP = m
		}
		m.Type, m.Code, m.Checksum, m.Rest = s.Type, s.Code, s.Checksum, s.Rest
		m.Quoted = append(m.Quoted[:0], s.Quoted...)
	} else if q.ICMP != nil {
		q.ICMP = nil
	}
}

// Clone returns a deep copy of the packet.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP, Payload: append([]byte(nil), p.Payload...)}
	if p.TCP != nil {
		t := *p.TCP
		t.Options = make([]TCPOption, len(p.TCP.Options))
		for i, o := range p.TCP.Options {
			t.Options[i] = TCPOption{Kind: o.Kind, Data: append([]byte(nil), o.Data...)}
		}
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	if p.ICMP != nil {
		m := *p.ICMP
		m.Quoted = append([]byte(nil), p.ICMP.Quoted...)
		q.ICMP = &m
	}
	return q
}

// String implements fmt.Stringer, summarizing all layers.
func (p *Packet) String() string {
	var b strings.Builder
	b.WriteString(p.IP.String())
	if p.TCP != nil {
		fmt.Fprintf(&b, " / %s", p.TCP)
	}
	if p.UDP != nil {
		fmt.Fprintf(&b, " / UDP %d > %d", p.UDP.SrcPort, p.UDP.DstPort)
	}
	if p.ICMP != nil {
		fmt.Fprintf(&b, " / %s", p.ICMP)
	}
	if len(p.Payload) > 0 {
		fmt.Fprintf(&b, " / %dB payload", len(p.Payload))
	}
	return b.String()
}

// tcpPacket co-locates a Packet with its TCP header so one allocation
// serves both — the hot path builds millions of these.
type tcpPacket struct {
	p Packet
	t TCP
}

// FillTCP rewrites p in place as a TCP packet with the same defaults as
// NewTCPPacket, reusing p's TCP struct when it has one. The payload is
// aliased, not copied. p must own its buffers (see Reset); callers use
// this to recycle a scratch packet across sequential sends.
func (p *Packet) FillTCP(src, dst netip.Addr, srcPort, dstPort uint16, flags TCPFlags, seq, ack uint32, payload []byte) {
	t := p.TCP
	if t == nil {
		t = &TCP{}
	}
	t.SrcPort, t.DstPort, t.Seq, t.Ack = srcPort, dstPort, seq, ack
	t.Flags, t.Window, t.Checksum, t.Urgent = flags, 65535, 0, 0
	if t.Options != nil {
		t.Options = nil
	}
	p.fill(src, dst, ProtoTCP, t, nil, nil, payload)
}

// fill rewrites p as the packet literal
// Packet{IP: IPv4{TTL: 64, Src: src, Dst: dst, Protocol: proto}, TCP: tcp,
// UDP: udp, ICMP: icmp, Payload: payload}, field by field. Packet, IPv4
// and the transport headers hold pointers (each netip.Addr carries one),
// so a whole-struct store compiles to a typedmemmove whose bulk write
// barrier walks every pointer slot while the GC marks; field stores pay a
// barrier only on the pointers they write, and fill skips a pointer field
// whose value does not change. The Fill methods and CloneInto recycle
// scratch packets on every forwarded packet (DESIGN.md §14).
func (p *Packet) fill(src, dst netip.Addr, proto Protocol, tcp *TCP, udp *UDP, icmp *ICMP, payload []byte) {
	p.IP.fill(src, dst, proto)
	if p.TCP != tcp {
		p.TCP = tcp
	}
	if p.UDP != udp {
		p.UDP = udp
	}
	if p.ICMP != icmp {
		p.ICMP = icmp
	}
	if payload != nil || p.Payload != nil {
		p.Payload = payload
	}
}

// NewTCPPacket builds a TCP packet with the given addressing, flags, and
// payload, using defaults suitable for the simulator.
func NewTCPPacket(src, dst netip.Addr, srcPort, dstPort uint16, flags TCPFlags, seq, ack uint32, payload []byte) *Packet {
	x := &tcpPacket{
		p: Packet{IP: IPv4{TTL: 64, Src: src, Dst: dst, Protocol: ProtoTCP}, Payload: payload},
		t: TCP{
			SrcPort: srcPort, DstPort: dstPort,
			Seq: seq, Ack: ack, Flags: flags, Window: 65535,
		},
	}
	x.p.TCP = &x.t
	return &x.p
}

// icmpPacket co-locates a Packet with its ICMP message, as tcpPacket does
// for TCP.
type icmpPacket struct {
	p Packet
	m ICMP
}

// NewTimeExceeded builds the ICMP Time Exceeded error a router at routerAddr
// sends back to the source of offending. quoteLen controls how many bytes of
// the offending packet's transport segment are quoted: 8 reproduces the
// RFC 792 minimum; larger values emulate RFC 1812 routers that quote more.
// The quote is built from the offending packet as the router observed it, so
// any header rewrites applied by upstream middleboxes are visible to
// Tracebox-style comparison. Only the quoted prefix is ever serialized; the
// offending payload is summed into the quoted checksum without being
// rendered.
func NewTimeExceeded(routerAddr netip.Addr, offending *Packet, quoteLen int) (*Packet, error) {
	x := &icmpPacket{}
	x.p.ICMP = &x.m
	if err := x.p.FillTimeExceeded(routerAddr, offending, quoteLen); err != nil {
		return nil, err
	}
	return &x.p, nil
}

// FillTimeExceeded rewrites p in place as the ICMP Time Exceeded error
// NewTimeExceeded builds, reusing p's ICMP struct and quote buffer when
// present. p must own its buffers (see Reset); consumers that retain quoted
// bytes past the packet's lifetime must copy them (ICMP.QuotedPacket already
// does).
func (p *Packet) FillTimeExceeded(routerAddr netip.Addr, offending *Packet, quoteLen int) error {
	m := p.ICMP
	if m == nil {
		m = &ICMP{}
	}
	quoted, err := offending.serializeTo(m.Quoted[:0], quoteLen)
	if err != nil {
		return err
	}
	m.Type, m.Code, m.Checksum, m.Rest = ICMPTimeExceeded, 0, 0, 0 // code 0: TTL exceeded in transit
	m.Quoted = quoted
	p.fill(routerAddr, offending.IP.Src, ProtoICMP, nil, nil, m, nil)
	return nil
}
