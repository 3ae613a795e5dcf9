package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cendev/internal/wire"
	"cendev/internal/wire/wiretest"
)

func testSpec(domain string) JobSpec {
	s := JobSpec{Kind: KindCenTrace, Domain: domain}
	s.Normalize()
	return s
}

// assertCleanSegments fails if any segment in dir holds a torn or
// undecodable record — the "no torn segments" invariant: every shard
// must frame-parse end to end.
func assertCleanSegments(t *testing.T, dir string) {
	t.Helper()
	bins, err := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range bins {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(raw)
		for {
			payload, ok := r.Next()
			if !ok {
				break
			}
			if _, err := decodeStoreRecord(payload); err != nil {
				t.Errorf("%s: undecodable record: %v", filepath.Base(p), err)
			}
		}
		if _, torn := r.Torn(); torn {
			t.Errorf("%s: torn tail left in segment: %q", filepath.Base(p), r.Warnings())
		}
		if w := r.Warnings(); len(w) != 0 {
			t.Errorf("%s: segment not clean: %q", filepath.Base(p), w)
		}
	}
}

func TestStoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	a, err := st.AppendQueued(testSpec("a.example"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.AppendQueued(testSpec("b.example"))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("duplicate job IDs: %s", a.ID)
	}

	if err := st.UpdateState(a.ID, StateRunning, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"blocked":true}`)
	if err := st.UpdateState(a.ID, StateDone, 1, "", payload); err != nil {
		t.Fatal(err)
	}

	e, ok := st.Get(a.ID)
	if !ok || e.State != StateDone || string(e.Payload) != string(payload) {
		t.Fatalf("Get(%s) = %+v ok=%v, want done with payload", a.ID, e, ok)
	}
	pend := st.Pending()
	if len(pend) != 1 || pend[0].ID != b.ID {
		t.Fatalf("Pending = %+v, want just %s", pend, b.ID)
	}
}

// TestStoreMutatorsAfterClose: once Close has run, every mutator fails
// with ErrStoreClosed instead of writing through a released segment
// handle (which used to panic), and reads keep serving the index.
func TestStoreMutatorsAfterClose(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.AppendQueued(testSpec("a.example"))
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"blocked":true}`)
	if err := st.PutResult("ext-1", testSpec("b.example"), payload, "d1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	mutators := []struct {
		name string
		call func() error
	}{
		{"AppendQueued", func() error { _, err := st.AppendQueued(testSpec("c.example")); return err }},
		{"UpdateState", func() error { return st.UpdateState(e.ID, StateRunning, 1, "", nil) }},
		{"UpdateDone", func() error { return st.UpdateDone(e.ID, 1, payload, "d2", nil) }},
		{"UpdateReplicas", func() error { return st.UpdateReplicas("ext-1", []string{"w1"}) }},
		{"PutResult", func() error { return st.PutResult("ext-2", testSpec("d.example"), payload, "d3") }},
		{"Compact", st.Compact},
	}
	for _, m := range mutators {
		if err := m.call(); !errors.Is(err, ErrStoreClosed) {
			t.Errorf("%s after Close = %v, want ErrStoreClosed", m.name, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	if got, ok := st.Get(e.ID); !ok || got.State != StateQueued {
		t.Errorf("Get(%s) after Close = %+v ok=%v, want the queued entry", e.ID, got, ok)
	}
	if st.Len() != 2 {
		t.Errorf("Len after Close = %d, want 2", st.Len())
	}
}

func TestStoreRecoversAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := st.AppendQueued(testSpec("a.example"))
	b, _ := st.AppendQueued(testSpec("b.example"))
	c, _ := st.AppendQueued(testSpec("c.example"))
	payload := json.RawMessage(`{"blocked":false,"n":3}`)
	st.UpdateState(a.ID, StateDone, 1, "", payload)
	st.UpdateState(b.ID, StateRunning, 1, "", nil) // crash mid-run
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Fatalf("recovered %d jobs, want 3", st2.Len())
	}
	e, _ := st2.Get(a.ID)
	if e.State != StateDone || string(e.Payload) != string(payload) {
		t.Fatalf("job a after reopen: %+v, want done with original payload", e)
	}
	pend := st2.Pending()
	if len(pend) != 2 || pend[0].ID != b.ID || pend[1].ID != c.ID {
		t.Fatalf("Pending after reopen = %+v, want [b c] in admission order", pend)
	}
	// IDs keep advancing, no collisions.
	d, err := st2.AppendQueued(testSpec("d.example"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if d.ID == id {
			t.Fatalf("new ID %s collides with recovered job", d.ID)
		}
	}
}

func TestStoreTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := st.AppendQueued(testSpec("a.example"))
	b, _ := st.AppendQueued(testSpec("b.example"))
	st.UpdateState(a.ID, StateDone, 1, "", json.RawMessage(`{"ok":true}`))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// kill -9 mid-append: every shard gets the front half of a frame —
	// marker and a length that promises more payload than exists.
	torn := encodeRecord(t, &storeRecord{Seq: 999, ID: "j-09999999", State: StateDone})
	tornFrame := wire.AppendFrame(nil, torn)
	paths, _ := filepath.Glob(filepath.Join(dir, "shard-*.bin"))
	if len(paths) == 0 {
		t.Fatal("no binary shards written")
	}
	for _, p := range paths {
		f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tornFrame[:len(tornFrame)/2]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	st2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("recovered %d jobs, want 2 (torn record must not become a job)", st2.Len())
	}
	if _, ok := st2.Get("j-09999999"); ok {
		t.Fatal("torn record materialized as a job")
	}
	e, _ := st2.Get(a.ID)
	if e.State != StateDone {
		t.Fatalf("job a = %s, want done", e.State)
	}
	if e, _ := st2.Get(b.ID); e.State != StateQueued {
		t.Fatalf("job b = %s, want queued", e.State)
	}
	var truncated int
	for _, w := range st2.Warnings() {
		if strings.Contains(w, "truncated torn tail") {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatalf("no truncation warning; warnings = %q", st2.Warnings())
	}
	// The repair must leave clean segments and an appendable store.
	assertCleanSegments(t, dir)
	if _, err := st2.AppendQueued(testSpec("c.example")); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	assertCleanSegments(t, dir)
}

func TestStoreBinaryInteriorCorruptionResyncs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := st.AppendQueued(testSpec("a.example"))
	b, _ := st.AppendQueued(testSpec("b.example"))
	c, _ := st.AppendQueued(testSpec("c.example"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last payload byte of the middle frame: its CRC fails, and
	// replay must resync at the third frame's marker instead of dropping
	// the good tail.
	p := filepath.Join(dir, "shard-00.bin")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var markers []int
	for i := 0; i+len(wire.Marker) <= len(raw); i++ {
		if raw[i] == wire.Marker[0] && raw[i+1] == wire.Marker[1] &&
			raw[i+2] == wire.Marker[2] && raw[i+3] == wire.Marker[3] {
			markers = append(markers, i)
		}
	}
	if len(markers) != 3 {
		t.Fatalf("expected 3 frames, found markers at %v", markers)
	}
	raw[markers[2]-1] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("recovered %d jobs, want 2 (corrupt middle record skipped)", st2.Len())
	}
	if _, ok := st2.Get(b.ID); ok {
		t.Fatal("corrupt record materialized as a job")
	}
	for _, id := range []string{a.ID, c.ID} {
		if e, ok := st2.Get(id); !ok || e.State != StateQueued {
			t.Fatalf("job %s after interior corruption: %+v ok=%v", id, e, ok)
		}
	}
	var resynced bool
	for _, w := range st2.Warnings() {
		if strings.Contains(w, "resynced") {
			resynced = true
		}
	}
	if !resynced {
		t.Fatalf("no resync warning; warnings = %q", st2.Warnings())
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.compactMinRecords = 8
	a, _ := st.AppendQueued(testSpec("a.example"))
	// Pile up garbage: every update is a superseded record.
	for i := 1; i <= 40; i++ {
		if err := st.UpdateState(a.ID, StateRunning, i, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	payload := json.RawMessage(`{"final":true}`)
	if err := st.UpdateState(a.ID, StateDone, 41, "", payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "shard-00.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// 42 records were appended; periodic compaction must have kept the
	// segment near the live size (one merged record plus post-compaction
	// updates below the next trigger).
	n := 0
	for r := wire.NewReader(raw); ; n++ {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if n >= st.compactMinRecords {
		t.Fatalf("segment has %d records, want < %d (compaction never ran?)", n, st.compactMinRecords)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted segment replays to the same state.
	st2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e, ok := st2.Get(a.ID)
	if !ok || e.State != StateDone || e.Attempts != 41 || string(e.Payload) != string(payload) {
		t.Fatalf("after compaction+reopen: %+v ok=%v", e, ok)
	}
	if e.Spec.Domain != "a.example" {
		t.Fatalf("spec lost in compaction: %+v", e.Spec)
	}
}

func TestStoreLeftoverTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	// A crash between temp-write and rename leaves the compaction temp
	// file, holding whole frames; it must not be replayed as a segment.
	rec := encodeRecord(t, &storeRecord{Seq: 9, ID: "j-00000009", State: StateDone})
	if err := os.WriteFile(filepath.Join(dir, "shard-00.bin.tmp"),
		wire.AppendFrame(nil, rec), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 0 {
		t.Fatalf("store replayed a .tmp file: %d jobs", st.Len())
	}
}

func TestStoreShardCountChange(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		e, err := st.AppendQueued(testSpec(fmt.Sprintf("d%d.example", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}
	st.UpdateState(ids[0], StateDone, 1, "", json.RawMessage(`{"i":0}`))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with fewer shards: segments beyond the new count must still
	// be replayed and updates land in the new hash-owner shard.
	st2, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 8 {
		t.Fatalf("recovered %d jobs across shard-count change, want 8", st2.Len())
	}
	if e, _ := st2.Get(ids[0]); e.State != StateDone {
		t.Fatalf("job 0 state = %s, want done", e.State)
	}
	if err := st2.UpdateState(ids[3], StateDone, 1, "", json.RawMessage(`{"i":3}`)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCompactionBeatsStaleLegacyRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Find a job whose records land in shard-01 — a segment beyond the
	// shard count once the store reopens with one shard.
	var victim string
	for i := 0; i < 8 && victim == ""; i++ {
		e, err := st.AppendQueued(testSpec(fmt.Sprintf("d%d.example", i)))
		if err != nil {
			t.Fatal(err)
		}
		if st.shardFor(e.ID) == 1 {
			victim = e.ID
		}
	}
	if victim == "" {
		t.Fatal("no job hashed to shard 1")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with one shard: the victim's queued record now lives in a
	// read-only segment. Progress it and compact the active shard —
	// the compacted merged record has the job's first seq, which ties with
	// the stale queued record still on disk in shard-01.
	st2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := json.RawMessage(`{"v":1}`)
	if err := st2.UpdateState(victim, StateDone, 1, "", payload); err != nil {
		t.Fatal(err)
	}
	st2.mu.Lock()
	err = st2.compactLocked(0)
	st2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	e, ok := st3.Get(victim)
	if !ok || e.State != StateDone || string(e.Payload) != string(payload) {
		t.Fatalf("stale record in shard-01 resurrected the job: %+v ok=%v, want done", e, ok)
	}
}

// TestStoreLiveEqualsReplay: whatever sequence of mutators and
// compactions built a store, a reopen rebuilds every entry exactly as
// the live index holds it, because mutators apply their records with the
// merge replay uses. Each sequence opens with three calls after which
// the merge keeps an earlier value (a replica update with no replicas, a
// second done without digest or replicas, a state update with attempts
// 0) and goes on at random.
func TestStoreLiveEqualsReplay(t *testing.T) {
	probe := JobSpec{Kind: KindCenProbe, Addrs: []string{"10.0.0.1", "10.0.0.2"}, Loss: 0.25}
	probe.Normalize()
	specs := []JobSpec{testSpec("a.example"), testSpec("b.example"), probe}
	states := []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateDead, StateConflict}
	payloads := []json.RawMessage{nil, {}, json.RawMessage(`{"v":1}`), json.RawMessage(`{"v":2}`)}
	digests := []string{"", "d1", "d2"}
	replicaSets := [][]string{nil, {}, {"a", "b"}, {"c"}}
	errMsgs := []string{"", "boom"}

	for seed := int64(1); seed <= 30; seed++ {
		dir := t.TempDir()
		st, err := OpenStore(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		st.compactMinRecords = 6
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		e, err := st.AppendQueued(specs[0])
		must(err)
		must(st.UpdateDone(e.ID, 2, payloads[2], "d2", []string{"a", "b"}))
		must(st.UpdateReplicas(e.ID, nil))
		must(st.UpdateDone(e.ID, 0, nil, "", nil))
		must(st.UpdateState(e.ID, StateRunning, 0, "", nil))

		rng := rand.New(rand.NewSource(seed))
		pick := rng.Intn
		ids := []string{e.ID}
		for range 60 {
			id := ids[pick(len(ids))]
			switch pick(7) {
			case 0:
				e, err := st.AppendQueued(specs[pick(len(specs))])
				must(err)
				ids = append(ids, e.ID)
			case 1, 2:
				must(st.UpdateState(id, states[pick(len(states))], pick(3),
					errMsgs[pick(len(errMsgs))], payloads[pick(len(payloads))]))
			case 3:
				must(st.UpdateDone(id, pick(3), payloads[pick(len(payloads))],
					digests[pick(len(digests))], replicaSets[pick(len(replicaSets))]))
			case 4:
				must(st.UpdateReplicas(id, replicaSets[pick(len(replicaSets))]))
			case 5:
				if pick(2) == 0 {
					id = fmt.Sprintf("ext-%d", pick(3))
					ids = append(ids, id)
				}
				must(st.PutResult(id, specs[pick(len(specs))], payloads[pick(len(payloads))],
					digests[pick(len(digests))]))
			case 6:
				must(st.Compact())
			}
		}
		live := st.List("")
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := OpenStore(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Len() != len(live) {
			t.Fatalf("seed %d: %d live jobs, %d after reopen", seed, len(live), st2.Len())
		}
		for i := range live {
			want := &live[i]
			got, ok := st2.Get(want.ID)
			if !ok {
				t.Fatalf("seed %d: job %s lost on reopen", seed, want.ID)
			}
			if d := wiretest.Diff(want, &got); len(d) > 0 || got.mergedSeq != want.mergedSeq {
				t.Errorf("seed %d: job %s differs after reopen in %v (mergedSeq %d, %d):\n  live   %+v\n  replay %+v",
					seed, want.ID, d, want.mergedSeq, got.mergedSeq, *want, got)
			}
		}
		st2.Close()
	}
}

// TestStoreFullSpecSurvivesReopen: a spec with every field set, admitted
// and compacted into a merged record, comes back from a reopen equal to
// the admitted one and with the same CanonKey, the result-cache key.
func TestStoreFullSpecSurvivesReopen(t *testing.T) {
	var spec JobSpec
	wiretest.Fill(&spec)
	dir := t.TempDir()
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.AppendQueued(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.UpdateState(e.ID, StateRunning, 1, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "shard-00.bin"))
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	if _, ok := r.Next(); !ok {
		t.Fatal("compaction left no record")
	}
	if _, ok := r.Next(); ok {
		t.Fatal("segment holds more than the merged record: compaction did not run")
	}
	st2, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok := st2.Get(e.ID)
	if !ok {
		t.Fatalf("job %s lost on reopen", e.ID)
	}
	if d := wiretest.Diff(&spec, &got.Spec); len(d) > 0 {
		t.Errorf("reopen loses spec fields %v", d)
	}
	if got.Spec.CanonKey() != spec.CanonKey() {
		t.Errorf("CanonKey after reopen:\n  got  %s\n  want %s", got.Spec.CanonKey(), spec.CanonKey())
	}
}

// TestStoreSpecDecodeStrict: a record whose spec has a field JobSpec does
// not know, is not JSON, or has data after the spec object is skipped
// with a warning, and the segment's other records still replay.
func TestStoreSpecDecodeStrict(t *testing.T) {
	dir := t.TempDir()
	good := testSpec("a.example")
	var seg []byte
	for _, rec := range [][]byte{
		encodeRecord(t, &storeRecord{Seq: 1, ID: "j-00000001", State: StateQueued, Spec: &good}),
		editedSpecRecord(t, 2, "j-00000002", `"domain"`, `"domaix"`),
		editedSpecRecord(t, 3, "j-00000003", `{"kind"`, `<"kind"`),
		// The spec object ends after its kind; the other fields trail it.
		editedSpecRecord(t, 5, "j-00000005", `"centrace",`, `"centrace"}`),
		encodeRecord(t, &storeRecord{Seq: 4, ID: "j-00000004", State: StateQueued, Spec: &good}),
	} {
		seg = wire.AppendFrame(seg, rec)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-00.bin"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, id := range []string{"j-00000001", "j-00000004"} {
		if e, ok := st.Get(id); !ok || e.Spec.Domain != "a.example" {
			t.Errorf("good record %s not replayed: %+v ok=%v", id, e, ok)
		}
	}
	for _, id := range []string{"j-00000002", "j-00000003", "j-00000005"} {
		if _, ok := st.Get(id); ok {
			t.Errorf("record %s with a bad spec replayed", id)
		}
	}
	var skipped int
	for _, w := range st.Warnings() {
		if strings.Contains(w, "skipping undecodable record") {
			skipped++
		}
	}
	if skipped != 3 {
		t.Errorf("%d skip warnings, want 3: %q", skipped, st.Warnings())
	}
}

// TestStoreUnencodableSpec: a spec JSON cannot carry fails the append
// with an error, writes nothing and spends no ID.
func TestStoreUnencodableSpec(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bad := testSpec("a.example")
	bad.Loss = math.NaN()
	if _, err := st.AppendQueued(bad); err == nil {
		t.Fatal("AppendQueued stored a NaN-loss spec")
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, "shard-00.bin")); len(raw) != 0 || st.Len() != 0 {
		t.Fatalf("failed append left %d bytes and %d jobs", len(raw), st.Len())
	}
	e, err := st.AppendQueued(testSpec("a.example"))
	if err != nil || e.ID != "j-00000001" {
		t.Fatalf("next append = %+v, %v; want j-00000001", e, err)
	}
}
