package netem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

var (
	addrA = netip.MustParseAddr("10.0.0.1")
	addrB = netip.MustParseAddr("192.0.2.7")
)

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS: 0x20, ID: 4242, Flags: IPFlagDF, TTL: 13,
		Protocol: ProtoTCP, Src: addrA, Dst: addrB,
	}
	wire := h.SerializeTo(nil, 100)
	if len(wire) != IPv4HeaderLen {
		t.Fatalf("header length = %d, want %d", len(wire), IPv4HeaderLen)
	}
	var got IPv4
	n, err := got.DecodeFromBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4HeaderLen {
		t.Errorf("consumed %d bytes, want %d", n, IPv4HeaderLen)
	}
	if got != h {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if got.TotalLength != IPv4HeaderLen+100 {
		t.Errorf("TotalLength = %d, want %d", got.TotalLength, IPv4HeaderLen+100)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	h := IPv4{TTL: 64, Protocol: ProtoTCP, Src: addrA, Dst: addrB}
	wire := h.SerializeTo(nil, 0)
	// Sum over the header including the checksum field must be zero
	// (all-ones complement).
	var sum uint32
	for i := 0; i < len(wire); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(wire[i:]))
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	if uint16(sum) != 0xffff {
		t.Errorf("header checksum does not verify: folded sum = %#x", sum)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4
	if _, err := h.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short buffer: want error")
	}
	bad := make([]byte, IPv4HeaderLen)
	bad[0] = 6 << 4 // IPv6 version nibble
	if _, err := h.DecodeFromBytes(bad); err == nil {
		t.Error("bad version: want error")
	}
	badIHL := make([]byte, IPv4HeaderLen)
	badIHL[0] = 4<<4 | 3 // IHL below minimum
	if _, err := h.DecodeFromBytes(badIHL); err == nil {
		t.Error("bad IHL: want error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tcp := TCP{
		SrcPort: 43210, DstPort: 443,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: TCPSyn | TCPAck, Window: 29200, Urgent: 0,
		Options: []TCPOption{
			{Kind: TCPOptMSS, Data: []byte{0x05, 0xb4}},
			{Kind: TCPOptNop},
			{Kind: TCPOptWScale, Data: []byte{7}},
		},
	}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	wire := tcp.SerializeTo(nil, addrA.As4(), addrB.As4(), payload)
	var got TCP
	hl, err := got.DecodeFromBytes(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire[hl:], payload) {
		t.Errorf("payload after header = %q, want %q", wire[hl:], payload)
	}
	if got.SrcPort != tcp.SrcPort || got.DstPort != tcp.DstPort ||
		got.Seq != tcp.Seq || got.Ack != tcp.Ack ||
		got.Flags != tcp.Flags || got.Window != tcp.Window {
		t.Errorf("fixed fields mismatch: got %+v want %+v", got, tcp)
	}
	if !reflect.DeepEqual(got.Options, tcp.Options) {
		t.Errorf("options mismatch: got %v want %v", got.Options, tcp.Options)
	}
}

func TestTCPChecksumVerifies(t *testing.T) {
	tcp := TCP{SrcPort: 1000, DstPort: 80, Flags: TCPPsh | TCPAck}
	payload := []byte("hello")
	wire := tcp.SerializeTo(nil, addrA.As4(), addrB.As4(), payload)
	init := pseudoHeaderSum(addrA.As4(), addrB.As4(), uint8(ProtoTCP), len(wire))
	if got := checksumWithInitial(init, wire); got != 0 {
		t.Errorf("checksum over serialized segment = %#x, want 0", got)
	}
}

func TestTCPOptionKindsOrder(t *testing.T) {
	tcp := TCP{Options: []TCPOption{
		{Kind: TCPOptMSS, Data: []byte{1, 2}},
		{Kind: TCPOptSACKPerm},
		{Kind: TCPOptTimestamp, Data: make([]byte, 8)},
	}}
	got := tcp.OptionKinds()
	want := []TCPOptionKind{TCPOptMSS, TCPOptSACKPerm, TCPOptTimestamp}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OptionKinds = %v, want %v", got, want)
	}
}

func TestPacketRoundTripTCP(t *testing.T) {
	p := NewTCPPacket(addrA, addrB, 55555, 80, TCPPsh|TCPAck, 1, 1, []byte("payload-bytes"))
	p.IP.TOS = 0x10
	p.IP.ID = 99
	wire, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.IP.Src != p.IP.Src || got.IP.Dst != p.IP.Dst || got.IP.TOS != p.IP.TOS {
		t.Errorf("IP fields mismatch: got %+v", got.IP)
	}
	if got.TCP == nil || got.TCP.SrcPort != 55555 || got.TCP.DstPort != 80 {
		t.Fatalf("TCP layer mismatch: %+v", got.TCP)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload = %q, want %q", got.Payload, p.Payload)
	}
}

func TestPacketRoundTripICMP(t *testing.T) {
	orig := NewTCPPacket(addrA, addrB, 40000, 443, TCPSyn, 7, 0, nil)
	router := netip.MustParseAddr("172.16.0.1")
	te, err := NewTimeExceeded(router, orig, 8)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := te.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePacket(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ICMP == nil || got.ICMP.Type != ICMPTimeExceeded {
		t.Fatalf("ICMP layer mismatch: %+v", got.ICMP)
	}
	q, err := got.ICMP.QuotedPacket()
	if err != nil {
		t.Fatal(err)
	}
	if q.IP.Src != addrA || q.IP.Dst != addrB {
		t.Errorf("quoted addresses = %s>%s, want %s>%s", q.IP.Src, q.IP.Dst, addrA, addrB)
	}
	src, dst, ok := q.QuotedPorts()
	if !ok || src != 40000 || dst != 443 {
		t.Errorf("quoted ports = %d>%d ok=%v", src, dst, ok)
	}
	seq, ok := q.QuotedSeq()
	if !ok || seq != 7 {
		t.Errorf("quoted seq = %d ok=%v, want 7", seq, ok)
	}
	if !q.FollowsRFC792Only() {
		t.Error("8-byte quote should register as RFC 792 minimum")
	}
}

func TestTimeExceededRFC1812FullQuote(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	orig := NewTCPPacket(addrA, addrB, 40000, 80, TCPPsh|TCPAck, 100, 1, payload)
	te, err := NewTimeExceeded(netip.MustParseAddr("172.16.0.1"), orig, 4096)
	if err != nil {
		t.Fatal(err)
	}
	q, err := te.ICMP.QuotedPacket()
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP == nil {
		t.Fatal("full quote should include a parseable TCP header")
	}
	if q.FollowsRFC792Only() {
		t.Error("full quote should not register as RFC 792 minimum")
	}
	if q.TCP.SrcPort != 40000 {
		t.Errorf("quoted TCP src port = %d, want 40000", q.TCP.SrcPort)
	}
}

// TestQuoteIsPrefixOfFullSerialization: at every quote length, around
// the TCP checksum field (bytes 16 and 17) and past the header, the quote
// is the same bytes as the matching prefix of the full packet's wire form.
func TestQuoteIsPrefixOfFullSerialization(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	orig := NewTCPPacket(addrA, addrB, 40000, 80, TCPPsh|TCPAck, 100, 1, payload)
	orig.TCP.Options = []TCPOption{{Kind: TCPOptMSS, Data: []byte{0x05, 0xb4}}}
	full, err := orig.Clone().Serialize()
	if err != nil {
		t.Fatal(err)
	}
	for quoteLen := 0; quoteLen <= len(full)-IPv4HeaderLen+4; quoteLen++ {
		te, err := NewTimeExceeded(netip.MustParseAddr("172.16.0.1"), orig.Clone(), quoteLen)
		if err != nil {
			t.Fatal(err)
		}
		want := full[:min(len(full), IPv4HeaderLen+quoteLen)]
		if !bytes.Equal(te.ICMP.Quoted, want) {
			t.Fatalf("quote of %d transport bytes = % x, want % x", quoteLen, te.ICMP.Quoted, want)
		}
	}
}

func TestCompareQuoteDetectsTOSRewrite(t *testing.T) {
	sent := NewTCPPacket(addrA, addrB, 1234, 80, TCPPsh|TCPAck, 5, 5, []byte("x"))
	sent.IP.TOS = 0
	// The router saw a rewritten packet: a middlebox changed the TOS.
	seen := sent.Clone()
	seen.IP.TOS = 0x48
	te, err := NewTimeExceeded(netip.MustParseAddr("172.16.0.9"), seen, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, err := te.ICMP.QuotedPacket()
	if err != nil {
		t.Fatal(err)
	}
	d := CompareQuote(sent, q)
	if !d.TOSChanged {
		t.Error("TOSChanged = false, want true")
	}
	if d.IPFlagsChanged || d.SeqChanged || d.PortsChanged {
		t.Errorf("unexpected deltas: %s", d.String())
	}
	if !d.Any() {
		t.Error("Any() = false, want true")
	}
	want := []string{"IPTOSChanged"}
	if !reflect.DeepEqual(d.ChangedFields(), want) {
		t.Errorf("ChangedFields = %v, want %v", d.ChangedFields(), want)
	}
}

func TestCompareQuoteNoDelta(t *testing.T) {
	sent := NewTCPPacket(addrA, addrB, 1234, 80, TCPPsh|TCPAck, 5, 5, []byte("abc"))
	te, err := NewTimeExceeded(netip.MustParseAddr("172.16.0.9"), sent, 4096)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := te.ICMP.QuotedPacket()
	d := CompareQuote(sent, q)
	if d.Any() {
		t.Errorf("unexpected deltas on clean path: %s", d.String())
	}
	if d.String() != "no-delta" {
		t.Errorf("String() = %q, want no-delta", d.String())
	}
}

func TestCompareQuotePayloadChange(t *testing.T) {
	sent := NewTCPPacket(addrA, addrB, 1234, 80, TCPPsh|TCPAck, 5, 5, []byte("GET /secret"))
	seen := sent.Clone()
	seen.Payload = []byte("GET /XXXXXX")
	te, _ := NewTimeExceeded(netip.MustParseAddr("172.16.0.9"), seen, 4096)
	q, _ := te.ICMP.QuotedPacket()
	d := CompareQuote(sent, q)
	if !d.PayloadChanged {
		t.Error("PayloadChanged = false, want true")
	}
}

func TestPacketClone(t *testing.T) {
	p := NewTCPPacket(addrA, addrB, 1, 2, TCPSyn, 3, 4, []byte("data"))
	p.TCP.Options = []TCPOption{{Kind: TCPOptMSS, Data: []byte{9, 9}}}
	c := p.Clone()
	c.Payload[0] = 'X'
	c.TCP.Options[0].Data[0] = 0
	c.IP.TTL = 1
	if p.Payload[0] != 'd' || p.TCP.Options[0].Data[0] != 9 || p.IP.TTL != 64 {
		t.Error("Clone shares storage with original")
	}
}

func TestSerializeNoTransport(t *testing.T) {
	p := &Packet{IP: IPv4{Src: addrA, Dst: addrB}}
	if _, err := p.Serialize(); err == nil {
		t.Error("want error for packet with no transport layer")
	}
}

func TestDecodePacketErrors(t *testing.T) {
	if _, err := DecodePacket([]byte{1, 2, 3}); err == nil {
		t.Error("short packet: want error")
	}
	h := IPv4{TTL: 4, Protocol: ProtoUDP, Src: addrA, Dst: addrB}
	wire := h.SerializeTo(nil, 0)
	if _, err := DecodePacket(wire); err == nil {
		t.Error("unsupported protocol: want error")
	}
}

// quickIPv4 builds an arbitrary-but-valid IPv4 header from fuzzer values.
func quickIPv4(tos uint8, id uint16, flags uint8, ttl uint8, srcRaw, dstRaw [4]byte) IPv4 {
	return IPv4{
		TOS: tos, ID: id, Flags: IPFlags(flags & 0x7), TTL: ttl,
		Protocol: ProtoTCP,
		Src:      netip.AddrFrom4(srcRaw), Dst: netip.AddrFrom4(dstRaw),
	}
}

func TestQuickIPv4RoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, flags, ttl uint8, src, dst [4]byte, payloadLen uint16) bool {
		h := quickIPv4(tos, id, flags, ttl, src, dst)
		wire := h.SerializeTo(nil, int(payloadLen%1400))
		var got IPv4
		if _, err := got.DecodeFromBytes(wire); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickTCPRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, nPayload uint8) bool {
		tcp := TCP{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: TCPFlags(flags & 0x3f), Window: win,
		}
		payload := make([]byte, int(nPayload))
		rng.Read(payload)
		wire := tcp.SerializeTo(nil, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, payload)
		var got TCP
		hl, err := got.DecodeFromBytes(wire)
		if err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == TCPFlags(flags&0x3f) &&
			got.Window == win && bytes.Equal(wire[hl:], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickPacketWireRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq uint32, nPayload uint8, tos uint8) bool {
		p := NewTCPPacket(addrA, addrB, sp, dp, TCPPsh|TCPAck, seq, 0, bytes.Repeat([]byte{0xAB}, int(nPayload)))
		p.IP.TOS = tos
		wire, err := p.Serialize()
		if err != nil {
			return false
		}
		got, err := DecodePacket(wire)
		if err != nil {
			return false
		}
		wire2, err := got.Serialize()
		if err != nil {
			return false
		}
		return bytes.Equal(wire, wire2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: checksum of a buffer plus its checksum
	// folds to zero.
	data := []byte{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06}
	c := Checksum(data)
	withSum := append(append([]byte(nil), data...), byte(c>>8), byte(c))
	if got := Checksum(withSum); got != 0 {
		t.Errorf("checksum over data+checksum = %#x, want 0", got)
	}
}

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{ProtoTCP: "TCP", ProtoICMP: "ICMP", ProtoUDP: "UDP", Protocol(200): "Protocol(200)"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
}

func TestFlagStrings(t *testing.T) {
	if s := (TCPSyn | TCPAck).String(); s != "SYN|ACK" {
		t.Errorf("TCP flags string = %q", s)
	}
	if s := TCPFlags(0).String(); s != "-" {
		t.Errorf("empty TCP flags string = %q", s)
	}
	if s := (IPFlagDF | IPFlagMF).String(); s != "DFMF" {
		t.Errorf("IP flags string = %q", s)
	}
	if s := IPFlags(0).String(); s != "-" {
		t.Errorf("empty IP flags string = %q", s)
	}
}

// dirtyPacket returns a packet with every header field, all three
// transport layers, TCP options, a quote and a payload set, as a recycled
// scratch packet can be.
func dirtyPacket() *Packet {
	return &Packet{
		IP: IPv4{
			TOS: 0x48, TotalLength: 99, ID: 77, Flags: IPFlagDF | IPFlagEv, FragOffset: 5, TTL: 3,
			Protocol: ProtoUDP, Checksum: 0xbeef,
			Src: netip.MustParseAddr("203.0.113.9"), Dst: netip.MustParseAddr("198.51.100.2"),
		},
		TCP: &TCP{
			SrcPort: 9, DstPort: 9, Seq: 9, Ack: 9, Flags: TCPRst | TCPUrg, Window: 9, Checksum: 9, Urgent: 9,
			Options: []TCPOption{{Kind: TCPOptMSS, Data: []byte{5, 180}}, {Kind: TCPOptNop}},
		},
		UDP:     &UDP{SrcPort: 7, DstPort: 7, Length: 7, Checksum: 7},
		ICMP:    &ICMP{Type: ICMPDestUnreach, Code: 3, Checksum: 3, Rest: 3, Quoted: []byte("stale quote")},
		Payload: []byte("stale payload"),
	}
}

// normalized is a copy of p whose empty slices are nil: packets built
// different ways leave an absent payload, quote or option list either nil
// or empty, and the two mean the same.
func normalized(p *Packet) Packet {
	c := *p
	if len(c.Payload) == 0 {
		c.Payload = nil
	}
	if c.TCP != nil {
		t := *c.TCP
		if len(t.Options) == 0 {
			t.Options = nil
		}
		c.TCP = &t
	}
	if c.ICMP != nil {
		m := *c.ICMP
		if len(m.Quoted) == 0 {
			m.Quoted = nil
		}
		c.ICMP = &m
	}
	return c
}

// TestFillsOverDirtyPacketMatchFreshBuild: the Fill methods and CloneInto
// write a recycled packet field by field, so each must leave no field of
// the packet's previous use behind. Over a dirty packet, and over one
// missing the layer the fill needs, each must equal a fresh build.
func TestFillsOverDirtyPacketMatchFreshBuild(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n")
	router := netip.MustParseAddr("172.16.0.1")
	withOptions := NewTCPPacket(addrA, addrB, 40000, 80, TCPPsh|TCPAck, 100, 1, payload)
	withOptions.IP.TOS, withOptions.IP.ID, withOptions.IP.Flags, withOptions.IP.TTL = 0x10, 5, IPFlagDF, 9
	withOptions.TCP.Urgent, withOptions.TCP.Checksum = 4, 0x1234
	withOptions.TCP.Options = []TCPOption{{Kind: TCPOptWScale, Data: []byte{7}}}
	timeExceeded, err := NewTimeExceeded(router, withOptions, 4096)
	if err != nil {
		t.Fatal(err)
	}
	udp := NewUDPPacket(addrB, addrA, 53, 40001, []byte("answer"))
	udp.UDP.Checksum = 0x77

	fills := []struct {
		name string
		fill func(p *Packet) error
		want *Packet
	}{
		{"FillTCP", func(p *Packet) error {
			p.FillTCP(addrA, addrB, 40000, 80, TCPPsh|TCPAck, 100, 1, payload)
			return nil
		}, NewTCPPacket(addrA, addrB, 40000, 80, TCPPsh|TCPAck, 100, 1, payload)},
		{"FillTCP without payload", func(p *Packet) error {
			p.FillTCP(addrB, addrA, 80, 40000, TCPSyn|TCPAck, 1000, 101, nil)
			return nil
		}, NewTCPPacket(addrB, addrA, 80, 40000, TCPSyn|TCPAck, 1000, 101, nil)},
		{"FillUDP", func(p *Packet) error {
			p.FillUDP(addrA, addrB, 40001, 53, payload)
			return nil
		}, NewUDPPacket(addrA, addrB, 40001, 53, payload)},
		{"FillTimeExceeded", func(p *Packet) error {
			return p.FillTimeExceeded(router, withOptions, 4096)
		}, timeExceeded},
		{"CloneInto TCP", func(p *Packet) error { withOptions.CloneInto(p); return nil }, withOptions.Clone()},
		{"CloneInto ICMP", func(p *Packet) error { timeExceeded.CloneInto(p); return nil }, timeExceeded.Clone()},
		{"CloneInto UDP", func(p *Packet) error { udp.CloneInto(p); return nil }, udp.Clone()},
	}
	dirt := []struct {
		name  string
		build func() *Packet
	}{
		{"every layer set", dirtyPacket},
		{"no transport", func() *Packet { p := dirtyPacket(); p.TCP, p.UDP, p.ICMP = nil, nil, nil; return p }},
	}
	for _, f := range fills {
		for _, d := range dirt {
			p := d.build()
			if err := f.fill(p); err != nil {
				t.Fatalf("%s over %s: %v", f.name, d.name, err)
			}
			if got, want := normalized(p), normalized(f.want); !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s:\n got %s %+v %+v %+v\nwant %s %+v %+v %+v", f.name, d.name,
					got.String(), got.TCP, got.UDP, got.ICMP, want.String(), want.TCP, want.UDP, want.ICMP)
			}
		}
	}

	// CloneInto shares no mutable memory with its source.
	q := dirtyPacket()
	withOptions.CloneInto(q)
	q.Payload[0], q.TCP.Options[0].Data[0] = 'X', 0
	if withOptions.Payload[0] != 'G' || withOptions.TCP.Options[0].Data[0] != 7 {
		t.Error("CloneInto shares storage with its source")
	}
}
