package netem

// Binary record codecs (internal/wire primitives) for the netem types
// that measurement results persist: the ICMP quoted packet and the
// Tracebox-style quote delta. Field order is the schema; the containing
// record's version byte gates evolution, so these carry none of their
// own. Append/Dec pairs must mirror each other exactly — the round-trip
// fuzz targets in centrace hold them to that.

import "cendev/internal/wire"

// AppendWire appends the header's binary record form to b.
func (h *IPv4) AppendWire(b []byte) []byte {
	b = append(b, h.TOS)
	b = wire.AppendUvarint(b, uint64(h.TotalLength))
	b = wire.AppendUvarint(b, uint64(h.ID))
	b = append(b, byte(h.Flags))
	b = wire.AppendUvarint(b, uint64(h.FragOffset))
	b = append(b, h.TTL, byte(h.Protocol))
	b = wire.AppendUvarint(b, uint64(h.Checksum))
	b = wire.AppendAddr(b, h.Src)
	return wire.AppendAddr(b, h.Dst)
}

// DecodeWire reads the header's binary record form from d.
func (h *IPv4) DecodeWire(d *wire.Dec) {
	h.TOS = d.Byte()
	h.TotalLength = uint16(d.Uvarint())
	h.ID = uint16(d.Uvarint())
	h.Flags = IPFlags(d.Byte())
	h.FragOffset = uint16(d.Uvarint())
	h.TTL = d.Byte()
	h.Protocol = Protocol(d.Byte())
	h.Checksum = uint16(d.Uvarint())
	h.Src = d.Addr()
	h.Dst = d.Addr()
}

// AppendWire appends the header's binary record form to b.
func (t *TCP) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(t.SrcPort))
	b = wire.AppendUvarint(b, uint64(t.DstPort))
	b = wire.AppendUvarint(b, uint64(t.Seq))
	b = wire.AppendUvarint(b, uint64(t.Ack))
	b = append(b, byte(t.Flags))
	b = wire.AppendUvarint(b, uint64(t.Window))
	b = wire.AppendUvarint(b, uint64(t.Checksum))
	b = wire.AppendUvarint(b, uint64(t.Urgent))
	b = wire.AppendUvarint(b, uint64(len(t.Options)))
	for _, o := range t.Options {
		b = append(b, byte(o.Kind))
		b = wire.AppendBytes(b, o.Data)
	}
	return b
}

// DecodeWire reads the header's binary record form from d.
func (t *TCP) DecodeWire(d *wire.Dec) {
	t.SrcPort = uint16(d.Uvarint())
	t.DstPort = uint16(d.Uvarint())
	t.Seq = uint32(d.Uvarint())
	t.Ack = uint32(d.Uvarint())
	t.Flags = TCPFlags(d.Byte())
	t.Window = uint16(d.Uvarint())
	t.Checksum = uint16(d.Uvarint())
	t.Urgent = uint16(d.Uvarint())
	n := d.Count()
	if d.Err() != nil || n == 0 {
		return
	}
	t.Options = make([]TCPOption, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		t.Options = append(t.Options, TCPOption{Kind: TCPOptionKind(d.Byte()), Data: d.Bytes()})
	}
}

// AppendWire appends the quoted packet's binary record form to b.
func (q *QuotedPacket) AppendWire(b []byte) []byte {
	b = q.IP.AppendWire(b)
	b = wire.AppendBytes(b, q.TransportBytes)
	b = wire.AppendBool(b, q.TCP != nil)
	if q.TCP != nil {
		b = q.TCP.AppendWire(b)
	}
	return b
}

// DecodeWire reads the quoted packet's binary record form from d.
func (q *QuotedPacket) DecodeWire(d *wire.Dec) {
	q.IP.DecodeWire(d)
	q.TransportBytes = d.Bytes()
	if d.Bool() {
		q.TCP = &TCP{}
		q.TCP.DecodeWire(d)
	}
}

// AppendWire appends the delta's binary record form to b.
func (qd *QuoteDelta) AppendWire(b []byte) []byte {
	b = wire.AppendBool(b, qd.TOSChanged)
	b = wire.AppendBool(b, qd.IPFlagsChanged)
	b = wire.AppendBool(b, qd.IPIDChanged)
	b = wire.AppendBool(b, qd.SeqChanged)
	b = wire.AppendBool(b, qd.PortsChanged)
	b = wire.AppendBool(b, qd.PayloadTruncated)
	b = wire.AppendBool(b, qd.PayloadChanged)
	b = wire.AppendBool(b, qd.RFC792Only)
	b = append(b, qd.TTLAtQuote)
	return wire.AppendVarint(b, int64(qd.QuotedPayloadLen))
}

// DecodeWire reads the delta's binary record form from d.
func (qd *QuoteDelta) DecodeWire(d *wire.Dec) {
	qd.TOSChanged = d.Bool()
	qd.IPFlagsChanged = d.Bool()
	qd.IPIDChanged = d.Bool()
	qd.SeqChanged = d.Bool()
	qd.PortsChanged = d.Bool()
	qd.PayloadTruncated = d.Bool()
	qd.PayloadChanged = d.Bool()
	qd.RFC792Only = d.Bool()
	qd.TTLAtQuote = d.Byte()
	qd.QuotedPayloadLen = int(d.Varint())
}
