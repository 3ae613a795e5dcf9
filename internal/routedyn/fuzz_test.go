package routedyn

import (
	"bytes"
	"testing"
	"time"

	"cendev/internal/wire"

	"cendev/internal/wire/wiretest"
)

// FuzzRouteEventReplay drives the event-journal parser with arbitrary
// bytes. Invariants: ReadJournal never panics or errors (corruption is
// warnings + a shorter replay, never a crash); every event it does return
// survives an encode/decode round trip bit-for-bit; and re-serializing
// the replayed events is idempotent.
func FuzzRouteEventReplay(f *testing.F) {
	seed := func(evs ...Event) []byte {
		var rec, out []byte
		for _, ev := range evs {
			rec = AppendEvent(rec[:0], ev)
			out = wire.AppendFrame(out, rec)
		}
		return out
	}
	f.Add(seed(Event{At: 5 * time.Second, Kind: Withdraw, From: "r1", To: "r2a"}))
	f.Add(seed(
		Event{At: time.Second, Kind: Rehash},
		Event{At: 2 * time.Second, Kind: Announce, From: "a", To: "b"},
	))
	f.Add([]byte{})
	f.Add([]byte{0xC5, 'c', 'w', '1', 0x05, 1, 0, 0, 0, 0})
	f.Add(wire.AppendFrame(nil, []byte{journalVersion, 7, 0, 0, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadJournal(data)
		if err != nil {
			t.Fatalf("ReadJournal returned an error on arbitrary input: %v", err)
		}
		var rec, out []byte
		for _, ev := range events {
			rec = AppendEvent(rec[:0], ev)
			back, decErr := DecodeEvent(rec)
			if decErr != nil {
				t.Fatalf("replayed event %+v does not re-decode: %v", ev, decErr)
			}
			if back != ev {
				t.Fatalf("round trip changed event: %+v -> %+v", ev, back)
			}
			out = wire.AppendFrame(out, rec)
		}
		again, _, err := ReadJournal(out)
		if err != nil {
			t.Fatalf("re-serialized journal failed to parse: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-serialized journal replayed %d events, want %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("re-serialized event %d diverged", i)
			}
		}
		var b1, b2 bytes.Buffer
		for _, ev := range events {
			b1.Write(wire.AppendFrame(nil, AppendEvent(nil, ev)))
		}
		for _, ev := range again {
			b2.Write(wire.AppendFrame(nil, AppendEvent(nil, ev)))
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("journal serialization is not idempotent")
		}
	})
}

// TestRouteEventComplete: every exported field of a route event must
// survive its codec. The event is filled by reflection (its kind lands on
// Rehash), so a field added without a codec change fails here.
func TestRouteEventComplete(t *testing.T) {
	var ev Event
	wiretest.Fill(&ev)
	got, err := DecodeEvent(AppendEvent(nil, ev))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := wiretest.Diff(ev, got); len(d) > 0 {
		t.Errorf("route event codec loses %v", d)
	}
}
