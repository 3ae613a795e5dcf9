package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fullStoreRecord exercises every field of the record schema.
func fullStoreRecord() *storeRecord {
	return &storeRecord{
		Seq:    42,
		Merged: 41,
		ID:     "j-00000042",
		State:  StateDone,
		Spec: &JobSpec{
			Kind: KindCenTrace, Tenant: "ten", Priority: 2, Seed: -7,
			Client: "client-0", Endpoint: "ep-0", Domain: "blocked.example",
			Control: "control.example", Protocol: "https", Repetitions: 11,
			Workers: 4, RetryPasses: 2, Strategy: "priority", Extensions: true,
			Addrs: []string{"198.51.100.1", "198.51.100.2"}, TopK: 3, MinPts: 2,
			Loss: 0.25,
		},
		Attempts: 3,
		Error:    "transient: timeout",
		Payload:  json.RawMessage(`{"blocked":true,"ttl":7}`),
		Digest:   "8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f",
		Replicas: []string{"node-a", "node-c"},
	}
}

// TestStoreRecordRoundTrip is the golden check for the binary codec: a
// fully populated record must survive encode→decode bit-for-bit, and the
// decoded record's JSON form — the export view — must match the
// original's.
func TestStoreRecordRoundTrip(t *testing.T) {
	orig := fullStoreRecord()
	payload := appendStoreRecord(nil, orig)
	got, err := decodeStoreRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
	}

	origJSON, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	exportJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(origJSON) != string(exportJSON) {
		t.Fatalf("JSON view diverged:\n  orig   %s\n  export %s", origJSON, exportJSON)
	}
}

// TestStoreRecordRoundTripZero: the all-zero record (nil spec, nil
// payload) must round-trip too — presence bits, not sentinel values.
func TestStoreRecordRoundTripZero(t *testing.T) {
	orig := &storeRecord{ID: "j-0", State: StateQueued}
	got, err := decodeStoreRecord(appendStoreRecord(nil, orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("zero record diverged: %+v vs %+v", orig, got)
	}
}

// TestStoreRecordEncodingDeterministic: the byte stream must be a pure
// function of the record — same record, same bytes, every time.
func TestStoreRecordEncodingDeterministic(t *testing.T) {
	rec := fullStoreRecord()
	a := appendStoreRecord(nil, rec)
	b := appendStoreRecord(nil, rec)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same record differ")
	}
}

// TestStoreRecordVersionGate: a record of any version but 2 — the
// retired version 1 or a future one — must be rejected, not misparsed.
func TestStoreRecordVersionGate(t *testing.T) {
	for _, v := range []byte{0, 1, storeRecordV2 + 1} {
		payload := appendStoreRecord(nil, fullStoreRecord())
		payload[0] = v
		if _, err := decodeStoreRecord(payload); err == nil {
			t.Errorf("version %d record decoded without error", v)
		}
	}
}

// FuzzStoreRecordRoundTrip feeds arbitrary bytes to the record decoder:
// it must never panic, and any payload it accepts must re-encode and
// re-decode to the same record (decode∘encode is the identity on the
// decoder's image). Records are compared by their encodings: a decoded
// NaN loss survives byte-exact but is never DeepEqual to itself.
func FuzzStoreRecordRoundTrip(f *testing.F) {
	f.Add(appendStoreRecord(nil, fullStoreRecord()))
	nanLoss := fullStoreRecord()
	nanLoss.Spec.Loss = math.NaN()
	f.Add(appendStoreRecord(nil, nanLoss))
	f.Add(appendStoreRecord(nil, &storeRecord{ID: "j-1", State: StateQueued}))
	f.Add([]byte{1})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeStoreRecord(payload)
		if err != nil {
			return
		}
		re := appendStoreRecord(nil, rec)
		rec2, err := decodeStoreRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if re2 := appendStoreRecord(nil, rec2); string(re2) != string(re) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", rec, rec2)
		}
	})
}
