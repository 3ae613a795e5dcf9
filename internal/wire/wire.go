// Package wire is the length-prefixed binary record format shared by the
// censerved result store and the centrace campaign journal (DESIGN.md
// §14). A record is one self-delimiting frame:
//
//	frame   = marker | length | crc32 | payload
//	marker  = C5 63 77 31            ("cw1" behind a 0xC5 guard byte)
//	length  = uvarint(len(payload))  (capped at MaxPayload)
//	crc32   = IEEE CRC-32 of payload, little-endian
//	payload = version byte + record bytes (record codecs own both)
//
// The 0xC5 guard byte keeps any text file from passing for a record
// stream: 0xC5 is a UTF-8 *leading* byte that 0x63 'c' can never
// continue, so the marker never occurs in valid UTF-8 text, and ASCII
// text such as JSON cannot even start with its first byte. The centrace
// journal relies on this to refuse a file that is not a journal.
//
// The Reader's crash-recovery contract: a torn final frame (the kill -9
// mid-append artifact) is reported for truncation back to the last frame
// boundary, while interior corruption is skipped by scanning for the next
// marker — the CRC rejects false markers inside damaged regions — so good
// records after a tear still replay. Package wire imports only the
// standard library and holds no clocks, no randomness, and no I/O:
// encoding is a pure function of the record bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"net/netip"
)

// Marker is the four-byte frame marker every record starts with.
var Marker = [4]byte{0xC5, 'c', 'w', '1'}

// MaxPayload caps a frame's payload length. A corrupt length field fails
// this bound immediately instead of swallowing the rest of the file.
const MaxPayload = 64 << 20

// AppendFrame appends one complete frame carrying payload to dst and
// returns the extended slice.
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, Marker[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// Reader iterates the frames of a byte stream, tolerating torn tails and
// interior corruption. Payloads returned by Next alias the input buffer;
// callers that retain them across mutations of b must copy.
type Reader struct {
	b        []byte
	off      int
	good     int // offset just past the last good frame
	torn     bool
	warnings []string
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Next returns the next valid frame payload, or ok=false at the end of
// the stream (clean or torn — see Torn).
func (r *Reader) Next() (payload []byte, ok bool) {
	for r.off < len(r.b) {
		start := indexMarker(r.b, r.off)
		if start < 0 {
			// Trailing bytes with no frame start: the torn tail a crash
			// mid-append leaves behind.
			r.declareTorn(r.off, "no frame marker in trailing bytes")
			return nil, false
		}
		if start > r.off {
			r.warnings = append(r.warnings, fmt.Sprintf(
				"wire: skipped %d bytes of garbage at offset %d", start-r.off, r.off))
			r.off = start
		}
		p := start + len(Marker)
		length, n := binary.Uvarint(r.b[p:])
		if n <= 0 || length > MaxPayload {
			if !r.resyncOrTorn(start, "unreadable frame length") {
				return nil, false
			}
			continue
		}
		p += n
		end := p + 4 + int(length)
		if end < 0 || end > len(r.b) {
			if !r.resyncOrTorn(start, "frame extends past end of stream") {
				return nil, false
			}
			continue
		}
		want := binary.LittleEndian.Uint32(r.b[p:])
		payload = r.b[p+4 : end]
		if crc32.ChecksumIEEE(payload) != want {
			if !r.resyncOrTorn(start, "frame checksum mismatch") {
				return nil, false
			}
			continue
		}
		r.off = end
		r.good = end
		return payload, true
	}
	return nil, false
}

// resyncOrTorn handles an unusable frame starting at start. If a later
// marker exists the damage is interior: skip to it and return true to
// retry. Otherwise the damaged region runs to the end of the stream — the
// torn-tail case — and scanning stops.
func (r *Reader) resyncOrTorn(start int, why string) bool {
	if next := indexMarker(r.b, start+1); next >= 0 {
		r.warnings = append(r.warnings, fmt.Sprintf(
			"wire: %s at offset %d: resynced at offset %d", why, start, next))
		r.off = next
		return true
	}
	r.declareTorn(start, why)
	return false
}

func (r *Reader) declareTorn(at int, why string) {
	r.torn = true
	r.warnings = append(r.warnings, fmt.Sprintf(
		"wire: torn tail at offset %d (%s): %d trailing bytes unreadable",
		at, why, len(r.b)-at))
	r.off = len(r.b)
}

// Torn reports whether the stream ended in a torn frame, and the offset
// of the last good frame boundary — what the file should be truncated to
// so the next append starts clean.
func (r *Reader) Torn() (truncateTo int64, torn bool) { return int64(r.good), r.torn }

// Warnings returns descriptions of every skipped or torn region.
func (r *Reader) Warnings() []string { return r.warnings }

// indexMarker returns the index of the first frame marker at or after
// from, or -1.
func indexMarker(b []byte, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i+len(Marker) <= len(b); i++ {
		if b[i] == Marker[0] && b[i+1] == Marker[1] && b[i+2] == Marker[2] && b[i+3] == Marker[3] {
			return i
		}
	}
	return -1
}

// --- Primitive record encoding -----------------------------------------
//
// Record codecs are hand-written append/decode pairs over these
// primitives. Integers are varints, strings and byte slices are
// length-prefixed, floats are fixed 8-byte little-endian IEEE 754, and
// addresses are length-prefixed 4- or 16-byte network-order slices (zero
// length = the invalid address). Field order is the schema; the payload's
// leading version byte gates evolution.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE 754 bits of f, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBytes appends p length-prefixed.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendAddr appends a netip.Addr as its length-prefixed byte form; the
// invalid (zero) address encodes as length 0.
func AppendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, 0)
	}
	return AppendBytes(b, a.AsSlice())
}

// Dec decodes the primitives of one record payload in schema order. The
// error is sticky: after the first malformed field every later read
// returns a zero value, and Err reports the failure — codec code reads
// straight through and checks once at the end.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Dec) Len() int { return len(d.b) }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed %s", what)
	}
}

// Byte reads one raw byte — the record version, by convention.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Count reads a uvarint element count and rejects any value exceeding
// the unread byte length — every element costs at least one byte, so a
// larger count is corruption, and failing here (rather than clamping)
// keeps the sticky error honest instead of silently desyncing the
// decode.
func (d *Dec) Count() uint64 {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail("element count")
		return 0
	}
	return n
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bool reads a 0/1 byte; any other value is malformed.
func (d *Dec) Bool() bool {
	v := d.Byte()
	if v > 1 {
		d.fail("bool")
		return false
	}
	return v == 1
}

// Float64 reads fixed 8-byte little-endian IEEE 754 bits.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bytes reads a length-prefixed byte slice. The result is a copy: record
// decoding outlives the frame buffer it reads from. A zero length yields
// nil.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("bytes")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[:n])
	d.b = d.b[n:]
	return out
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Addr reads a length-prefixed address; length 0 is the invalid address.
func (d *Dec) Addr() netip.Addr {
	raw := d.Bytes()
	if d.err != nil || raw == nil {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(raw)
	if !ok {
		d.fail("addr")
		return netip.Addr{}
	}
	return a
}
