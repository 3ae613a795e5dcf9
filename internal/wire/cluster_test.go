package wire

import (
	"reflect"
	"testing"

	"cendev/internal/wire/wiretest"
)

func TestJobLeaseRoundTrip(t *testing.T) {
	orig := &JobLease{
		ID: "j-00000007", Node: "w3", Owner: "w1", Attempt: 2,
		Spec: []byte(`{"kind":"centrace","domain":"x.example"}`),
	}
	got, err := DecodeJobLease(AppendJobLease(nil, orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
	}

	zero := &JobLease{}
	got, err = DecodeJobLease(AppendJobLease(nil, zero))
	if err != nil {
		t.Fatalf("zero decode: %v", err)
	}
	if !reflect.DeepEqual(zero, got) {
		t.Fatalf("zero lease diverged: %+v", got)
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	for _, orig := range []*Completion{
		{ID: "j-1", Node: "w1", Attempt: 1, Digest: "ab12", Payload: []byte(`{"ok":true}`)},
		{ID: "j-2", Node: "w2", Attempt: 3, Transient: true, Error: "store write: EIO"},
		{},
	} {
		got, err := DecodeCompletion(AppendCompletion(nil, orig))
		if err != nil {
			t.Fatalf("decode %+v: %v", orig, err)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
		}
	}
}

func TestDigestRangeRoundTrip(t *testing.T) {
	orig := &DigestRange{Start: 0xff00000000000000, End: ^uint64(0), Count: 12, Digest: "deadbeef"}
	got, err := DecodeDigestRange(AppendDigestRange(nil, orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
	}
}

// TestClusterPayloadVersionGates: every cluster payload kind must reject
// a future version byte rather than misparse it, and a lease must reject
// the retired version 1, which carried a seed.
func TestClusterPayloadVersionGates(t *testing.T) {
	for _, v := range []byte{JobLeaseV2 - 1, JobLeaseV2 + 1} {
		lease := AppendJobLease(nil, &JobLease{ID: "j-1"})
		lease[0] = v
		if _, err := DecodeJobLease(lease); err == nil {
			t.Errorf("version %d lease decoded without error", v)
		}
	}
	comp := AppendCompletion(nil, &Completion{ID: "j-1"})
	comp[0]++
	if _, err := DecodeCompletion(comp); err == nil {
		t.Error("future-version completion decoded without error")
	}
	dr := AppendDigestRange(nil, &DigestRange{Count: 1})
	dr[0]++
	if _, err := DecodeDigestRange(dr); err == nil {
		t.Error("future-version digest range decoded without error")
	}
}

// TestClusterPayloadTruncation: truncated payloads must error, never
// panic or return partially filled records silently.
func TestClusterPayloadTruncation(t *testing.T) {
	full := AppendCompletion(nil, &Completion{
		ID: "j-00000042", Node: "w1", Attempt: 1, Digest: "ab", Payload: []byte("xyz"),
	})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeCompletion(full[:cut]); err == nil {
			t.Fatalf("completion truncated to %d bytes decoded without error", cut)
		}
	}
}

// FuzzCompletionRoundTrip: decode∘encode must be the identity on the
// decoder's image, and decoding must never panic.
func FuzzCompletionRoundTrip(f *testing.F) {
	f.Add(AppendCompletion(nil, &Completion{ID: "j-1", Node: "w1", Digest: "00", Payload: []byte("p")}))
	f.Add([]byte{CompletionV1})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := DecodeCompletion(payload)
		if err != nil {
			return
		}
		re := AppendCompletion(nil, c)
		c2, err := DecodeCompletion(re)
		if err != nil {
			t.Fatalf("re-encoded completion failed to decode: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", c, c2)
		}
	})
}

// TestClusterPayloadsComplete: every exported field of a lease, a
// completion and a digest range must survive its codec. The records are
// filled by reflection, so a field added without a codec change fails
// here.
func TestClusterPayloadsComplete(t *testing.T) {
	var l JobLease
	wiretest.Fill(&l)
	gotL, err := DecodeJobLease(AppendJobLease(nil, &l))
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	var c Completion
	wiretest.Fill(&c)
	gotC, err := DecodeCompletion(AppendCompletion(nil, &c))
	if err != nil {
		t.Fatalf("completion: %v", err)
	}
	var r DigestRange
	wiretest.Fill(&r)
	gotR, err := DecodeDigestRange(AppendDigestRange(nil, &r))
	if err != nil {
		t.Fatalf("digest range: %v", err)
	}
	for _, tc := range []struct {
		name      string
		want, got any
	}{{"lease", &l, gotL}, {"completion", &c, gotC}, {"digest range", &r, gotR}} {
		if d := wiretest.Diff(tc.want, tc.got); len(d) > 0 {
			t.Errorf("%s codec loses %v", tc.name, d)
		}
	}
}
