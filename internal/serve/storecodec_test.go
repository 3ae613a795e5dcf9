package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cendev/internal/wire/wiretest"
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
			Scenario: "flap-withdraw", Loss: 0.25,
		},
		Attempts: 3,
		Error:    "transient: timeout",
		Payload:  json.RawMessage(`{"blocked":true,"ttl":7}`),
		Digest:   "8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f",
		Replicas: []string{"node-a", "node-c"},
	}
}

// encodeRecord is appendStoreRecord for records that must encode.
func encodeRecord(tb testing.TB, rec *storeRecord) []byte {
	tb.Helper()
	b, err := appendStoreRecord(nil, rec)
	if err != nil {
		tb.Fatalf("encoding %s: %v", rec.ID, err)
	}
	return b
}

// TestStoreRecordRoundTrip is the golden check for the binary codec: a
// fully populated record must survive encode→decode bit-for-bit, and the
// decoded record's JSON form — the export view — must match the
// original's.
func TestStoreRecordRoundTrip(t *testing.T) {
	orig := fullStoreRecord()
	got, err := decodeStoreRecord(encodeRecord(t, orig))
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
// payload) must round-trip too.
func TestStoreRecordRoundTripZero(t *testing.T) {
	orig := &storeRecord{ID: "j-0", State: StateQueued}
	got, err := decodeStoreRecord(encodeRecord(t, orig))
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
	if string(encodeRecord(t, rec)) != string(encodeRecord(t, rec)) {
		t.Fatal("two encodings of the same record differ")
	}
}

// TestStoreRecordVersionGate: only version-4 records decode. The retired
// versions 1 to 3 and a future version 5 must be rejected, not misparsed.
func TestStoreRecordVersionGate(t *testing.T) {
	v4 := encodeRecord(t, fullStoreRecord())
	if _, err := decodeStoreRecord(v4); err != nil {
		t.Errorf("version 4 record rejected: %v", err)
	}
	for _, v := range []byte{0, 1, 2, 3, 5} {
		payload := append([]byte(nil), v4...)
		payload[0] = v
		if _, err := decodeStoreRecord(payload); err == nil {
			t.Errorf("version %d record decoded without error", v)
		}
	}
}

// editedSpecRecord encodes a queued record for id whose spec JSON has had
// from replaced by to, a string of the same length, so the spec field's
// length prefix still holds.
func editedSpecRecord(tb testing.TB, seq int64, id, from, to string) []byte {
	tb.Helper()
	spec := testSpec("a.example")
	payload := encodeRecord(tb, &storeRecord{Seq: seq, ID: id, State: StateQueued, Spec: &spec})
	edited := bytes.Replace(payload, []byte(from), []byte(to), 1)
	if len(from) != len(to) || bytes.Equal(edited, payload) {
		tb.Fatalf("spec edit %q → %q does not apply", from, to)
	}
	return edited
}

// FuzzStoreRecordRoundTrip feeds arbitrary bytes to the record decoder:
// it must never panic, and any payload it accepts must re-encode and
// re-decode to the same record (decode∘encode is the identity on the
// decoder's image). Records are compared by their encodings.
func FuzzStoreRecordRoundTrip(f *testing.F) {
	f.Add(encodeRecord(f, fullStoreRecord()))
	zeroSpec := &storeRecord{Seq: 2, ID: "j-2", State: StateQueued, Spec: &JobSpec{}}
	f.Add(encodeRecord(f, zeroSpec))
	f.Add(encodeRecord(f, &storeRecord{ID: "j-1", State: StateQueued}))
	f.Add(editedSpecRecord(f, 3, "j-3", `"domain"`, `"domaix"`))
	f.Add([]byte{1})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeStoreRecord(payload)
		if err != nil {
			return
		}
		re := encodeRecord(t, rec)
		rec2, err := decodeStoreRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if re2 := encodeRecord(t, rec2); string(re2) != string(re) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", rec, rec2)
		}
	})
}

// TestStoreRecordComplete: every exported field of a store record, each
// spec field included, must survive the binary codec. The record is
// filled by reflection, so a field added to JobSpec or storeRecord
// without a codec change fails here.
func TestStoreRecordComplete(t *testing.T) {
	var rec storeRecord
	wiretest.Fill(&rec)
	got, err := decodeStoreRecord(encodeRecord(t, &rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := wiretest.Diff(&rec, got); len(d) > 0 {
		t.Errorf("store record codec loses %v", d)
	}
}
