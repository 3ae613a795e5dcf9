package centrace

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"cendev/internal/netem"

	"cendev/internal/wire/wiretest"
)

// fullJournalEntry exercises every field of the journal schema, nested
// netem codecs included.
func fullJournalEntry() journalEntry {
	quote := &netem.QuotedPacket{
		IP: netem.IPv4{
			TOS: 0x10, TotalLength: 60, ID: 0x1234, Flags: netem.IPFlagDF,
			FragOffset: 0, TTL: 3, Protocol: netem.ProtoTCP, Checksum: 0xBEEF,
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("192.0.2.9"),
		},
		TransportBytes: []byte{0xDE, 0xAD, 0xBE, 0xEF},
		TCP: &netem.TCP{
			SrcPort: 443, DstPort: 51000, Seq: 1000, Ack: 2000,
			Flags: netem.TCPSyn | netem.TCPAck, Window: 65535, Checksum: 0xCAFE,
			Options: []netem.TCPOption{{Kind: netem.TCPOptMSS, Data: []byte{0x05, 0xB4}}},
		},
	}
	delta := &netem.QuoteDelta{
		TOSChanged: true, IPIDChanged: true, PayloadTruncated: true,
		TTLAtQuote: 1, QuotedPayloadLen: 8,
	}
	inj := &InjectedFeatures{
		TTL: 64, IPID: 0xABCD, IPFlags: netem.IPFlagDF,
		TCPFlags: netem.TCPRst, TCPWindow: 512,
		Options: []netem.TCPOptionKind{netem.TCPOptMSS, netem.TCPOptWScale},
	}
	trace := Trace{
		Domain: "blocked.example",
		Obs: []ProbeObs{
			{TTL: 1, Kind: KindICMP, From: netip.MustParseAddr("10.0.0.1"), Quote: quote, QuoteDelta: delta},
			{TTL: 2, Kind: KindRST, From: netip.MustParseAddr("192.0.2.9"), GotICMPAlongside: true,
				ICMPFrom: netip.MustParseAddr("10.0.0.2"), Injected: inj, Payload: []byte("HTTP/1.1 403")},
		},
		TermIdx: 1, Attempts: 5, Retries: 2, DialFailures: 1,
	}
	agg := &Aggregate{
		Domain: "blocked.example",
		Traces: []Trace{trace},
		HopDist: map[int]map[netip.Addr]int{
			1: {netip.MustParseAddr("10.0.0.1"): 11},
			2: {netip.MustParseAddr("10.0.0.2"): 7, netip.MustParseAddr("10.0.0.3"): 4},
		},
		TermTTL: 2, TermKind: KindRST, EndpointTTL: 5,
	}
	res := &Result{
		Config: Config{
			ControlDomain: "control.example", TestDomain: "blocked.example",
			Protocol: HTTP, MaxTTL: 30, Repetitions: 11, Retries: 3,
			ProbeInterval: 120 * time.Second, MaxConsecutiveTimeouts: 10,
		},
		Client:   netip.MustParseAddr("10.0.0.100"),
		Endpoint: netip.MustParseAddr("192.0.2.9"),
		Valid:    true, Blocked: true,
		TermKind: KindRST, TermTTL: 2, EndpointTTL: 5,
		Location: LocPath, Placement: PlacementInPath, DeviceTTL: 2,
		TTLCopyCorrected: true,
		BlockingHop: HopInfo{
			TTL: 2, Addr: netip.MustParseAddr("10.0.0.2"), ASN: 64500,
			Country: "XX", Org: "Example Transit",
		},
		Injected: inj, QuoteDelta: delta,
		BlockpageVendor: "vendor-a", BlockpageID: "bp-001",
		Confidence: Confidence{
			Score: 0.93, TermAgreement: 1, HopSupport: 0.9,
			RetryRate: 0.05, DialFailRate: 0.01,
		},
		Degraded: false,
		Control:  agg,
		Test:     agg,
	}
	return journalEntry{
		Key: "ep-0|blocked.example|http", Endpoint: "ep-0",
		Domain: "blocked.example", Protocol: "http", Label: "batch-1",
		Error: "", Result: res,
	}
}

// TestJournalEntryRoundTrip is the golden check for the binary journal
// codec: the full Result tree must survive encode→decode unchanged.
func TestJournalEntryRoundTrip(t *testing.T) {
	orig := fullJournalEntry()
	payload := appendJournalEntry(nil, &orig)
	got, err := decodeJournalEntry(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
	}
}

// TestJournalEntryRoundTripMinimal: an error-only entry with no result.
func TestJournalEntryRoundTripMinimal(t *testing.T) {
	orig := journalEntry{Key: "a|b|c", Domain: "b", Protocol: "c", Error: "unreachable"}
	got, err := decodeJournalEntry(appendJournalEntry(nil, &orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("minimal entry diverged: %+v vs %+v", orig, got)
	}
}

// TestJournalEntryEncodingDeterministic: HopDist is map-shaped, so this
// is the regression test for sorted-key encoding — identical entries must
// produce identical bytes on every call.
func TestJournalEntryEncodingDeterministic(t *testing.T) {
	e := fullJournalEntry()
	a := appendJournalEntry(nil, &e)
	for i := 0; i < 16; i++ {
		if b := appendJournalEntry(nil, &e); string(a) != string(b) {
			t.Fatalf("encoding %d differs from the first (unsorted map iteration?)", i)
		}
	}
}

// TestJournalEntryVersionGate: a record from a future schema version must
// be rejected, not misparsed.
func TestJournalEntryVersionGate(t *testing.T) {
	e := fullJournalEntry()
	payload := appendJournalEntry(nil, &e)
	payload[0] = journalV1 + 1
	if _, err := decodeJournalEntry(payload); err == nil {
		t.Fatal("future-version record decoded without error")
	}
}

// FuzzJournalEntryRoundTrip feeds arbitrary bytes to the entry decoder:
// it must never panic, and any payload it accepts must re-encode and
// re-decode to the same entry. Entries are compared by their encodings:
// a decoded NaN float survives byte-exact but is never DeepEqual to
// itself (the checked-in corpus holds such an input).
func FuzzJournalEntryRoundTrip(f *testing.F) {
	full := fullJournalEntry()
	f.Add(appendJournalEntry(nil, &full))
	minimal := journalEntry{Key: "k", Error: "e"}
	f.Add(appendJournalEntry(nil, &minimal))
	f.Add([]byte{journalV1})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeJournalEntry(payload)
		if err != nil {
			return
		}
		re := appendJournalEntry(nil, &e)
		e2, err := decodeJournalEntry(re)
		if err != nil {
			t.Fatalf("re-encoded entry failed to decode: %v", err)
		}
		if re2 := appendJournalEntry(nil, &e2); string(re2) != string(re) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", e, e2)
		}
	})
}

// TestJournalEntryComplete: every exported field of a journal entry, down
// through the whole Result tree, must survive the binary codec. The entry
// is filled by reflection, so a field added anywhere in the tree without a
// codec change fails here. Config.Obs, Config.Tracer and Config.Parent are
// runtime wiring the journal does not persist.
func TestJournalEntryComplete(t *testing.T) {
	var e journalEntry
	wiretest.Fill(&e, "Config.Obs", "Config.Tracer", "Config.Parent")
	got, err := decodeJournalEntry(appendJournalEntry(nil, &e))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := wiretest.Diff(e, got); len(d) > 0 {
		t.Errorf("journal entry codec loses %v", d)
	}
}
