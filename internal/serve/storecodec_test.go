package serve

import (
	"encoding/hex"
	"encoding/json"
	"math"
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

// storeRecordV2Full is fullStoreRecord as the version-2 codec wrote it.
// Version 2 had no field for the spec's scenario.
const storeRecordV2Full = "0254520a6a2d303030303030343204646f6e65010863656e74726163650374656e040d08636c69656e742d300465702d300f626c6f636b65642e6578616d706c650f636f6e74726f6c2e6578616d706c65056874747073160804087072696f7269747901020c3139382e35312e3130302e310c3139382e35312e3130302e320604000000000000d03f06127472616e7369656e743a2074696d656f7574187b22626c6f636b6564223a747275652c2274746c223a377d403862326339613066386232633961306638623263396130663862326339613066386232633961306638623263396130663862326339613066386232633961306602066e6f64652d61066e6f64652d63"

// TestStoreRecordV2Replays: a version-2 record still decodes, to the same
// record with an empty scenario.
func TestStoreRecordV2Replays(t *testing.T) {
	payload, err := hex.DecodeString(storeRecordV2Full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStoreRecord(payload)
	if err != nil {
		t.Fatalf("decode version 2: %v", err)
	}
	want := fullStoreRecord()
	want.Spec.Scenario = ""
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("version 2 record diverged:\n  want %+v\n  got  %+v", want.Spec, got.Spec)
	}
}

// TestStoreRecordVersionGate: records of versions 2 and 3 decode; any
// other version — the retired version 1 or a future one — must be
// rejected, not misparsed.
func TestStoreRecordVersionGate(t *testing.T) {
	v2, err := hex.DecodeString(storeRecordV2Full)
	if err != nil {
		t.Fatal(err)
	}
	v3 := appendStoreRecord(nil, fullStoreRecord())
	for _, payload := range [][]byte{v2, v3} {
		if _, err := decodeStoreRecord(payload); err != nil {
			t.Errorf("version %d record rejected: %v", payload[0], err)
		}
	}
	for _, v := range []byte{0, 1, storeRecordV3 + 1} {
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
	if v2, err := hex.DecodeString(storeRecordV2Full); err == nil {
		f.Add(v2)
	}
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

// TestStoreRecordComplete: every exported field of a store record, each
// spec field included, must survive the binary codec. The record is
// filled by reflection, so a field added to JobSpec or storeRecord
// without a codec change fails here.
func TestStoreRecordComplete(t *testing.T) {
	var rec storeRecord
	wiretest.Fill(&rec)
	got, err := decodeStoreRecord(appendStoreRecord(nil, &rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := wiretest.Diff(&rec, got); len(d) > 0 {
		t.Errorf("store record codec loses %v", d)
	}
}
