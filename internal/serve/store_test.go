package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cendev/internal/wire"
)

func testSpec(domain string) JobSpec {
	s := JobSpec{Kind: KindCenTrace, Domain: domain}
	s.Normalize()
	return s
}

// assertCleanSegments fails if any segment in dir holds a torn or
// undecodable record — the "no torn segments" invariant. Binary shards
// must frame-parse end to end; legacy JSONL segments must be whole JSON
// lines.
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
	jsonls, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range jsonls {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
		line := 0
		for sc.Scan() {
			line++
			if len(sc.Bytes()) == 0 {
				continue
			}
			var rec storeRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				t.Errorf("%s line %d: torn record: %v", filepath.Base(p), line, err)
			}
		}
		f.Close()
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
	torn := appendStoreRecord(nil, &storeRecord{Seq: 999, ID: "j-09999999", State: StateDone})
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

func TestStoreInteriorTornRecordSkippedNotTruncated(t *testing.T) {
	dir := t.TempDir()
	// Build a single-shard segment by hand: good, torn, good.
	p := filepath.Join(dir, "shard-00.jsonl")
	lines := []string{
		`{"seq":1,"id":"j-00000001","state":"queued","spec":{"kind":"centrace","domain":"a.example"}}`,
		`{"seq":2,"id":"j-00000002","state":"qu`,
		`{"seq":3,"id":"j-00000001","state":"done","payload":{"ok":true}}`,
	}
	if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e, ok := st.Get("j-00000001")
	if !ok || e.State != StateDone {
		t.Fatalf("good record after interior tear lost: %+v ok=%v", e, ok)
	}
	if len(st.Warnings()) != 1 || !strings.Contains(st.Warnings()[0], "line 2") {
		t.Fatalf("warnings = %q, want one mentioning line 2", st.Warnings())
	}
	// The good tail must survive: no truncation happened.
	raw, _ := os.ReadFile(p)
	if !strings.Contains(string(raw), `"state":"done"`) {
		t.Fatal("interior tear caused truncation of the good tail")
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
	// A crash between temp-write and rename leaves a .tmp file; it must
	// not be replayed as a segment.
	if err := os.WriteFile(filepath.Join(dir, "shard-00.jsonl.tmp"),
		[]byte(`{"seq":9,"id":"j-00000009","state":"done"}`+"\n"), 0o644); err != nil {
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
	// Reopen with fewer shards: legacy segments must still be replayed
	// and updates land in the new hash-owner shard.
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
	// Find a job whose records land in shard-01 — a legacy segment once
	// the store reopens with one shard.
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
	// legacy read-only segment. Progress it and compact the active shard —
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
		t.Fatalf("stale legacy record resurrected the job: %+v ok=%v, want done", e, ok)
	}
}
