package serve

// The result store is a sharded append-only journal, the service-scale
// descendant of the centrace campaign Journal: every job-state transition
// is one binary record frame (internal/wire, DESIGN.md §14) appended (and
// fsynced) to the shard-NN.bin segment its job ID hashes to, an in-memory
// index holds the merged latest view, and reopening a directory replays
// every segment — tolerating the torn final frame a kill -9 mid-append
// leaves behind by truncating it away — so a crashed daemon restarts into
// exactly the set of durable jobs. Legacy shard-*.jsonl segments from the
// JSON-lines era replay read-only: their jobs land in the index, and any
// new records for them append to the binary shard their ID now hashes to.
// JSON survives as the export/debug view (ExportJSON). Shards bound
// compaction work and spread append fsyncs across files; when a shard
// accumulates more superseded records than live ones it is rewritten in
// place (write-temp, rename) from the merged index.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// storeRecord is the on-disk form of one job-state transition. Queued
// records carry the spec; done records carry the payload; compaction
// writes fully merged records carrying both.
type storeRecord struct {
	Seq int64 `json:"seq"`
	// Merged, set on compacted records, is the highest record seq folded
	// into the merged state. Replay compares states by max(Seq, Merged),
	// so a compacted record beats stale pre-compaction records that
	// survive in legacy segments, while Seq keeps the job's admission
	// order.
	Merged   int64           `json:"merged,omitempty"`
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	Spec     *JobSpec        `json:"spec,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	// Digest is the hex SHA-256 of the result payload; Replicas names
	// the cluster nodes holding a durable copy. Both ride along with
	// done records (record schema v2; v1 records replay with them empty).
	Digest   string   `json:"digest,omitempty"`
	Replicas []string `json:"replicas,omitempty"`
}

// JobEntry is the merged in-memory view of one job.
type JobEntry struct {
	ID       string
	Seq      int64 // seq of the job's first (queued) record: admission order
	State    JobState
	Spec     JobSpec
	Attempts int
	Error    string
	Payload  json.RawMessage
	// Digest is the hex SHA-256 of the payload; Replicas the nodes with
	// a durable copy (see storeRecord).
	Digest   string
	Replicas []string
	// mergedSeq is the highest record seq folded in — replay may visit a
	// job's records out of order when they span segments (a shard-count
	// change between runs), and only the newest record decides the state.
	mergedSeq int64
}

// Status renders the entry as the API's job status body.
func (e *JobEntry) Status() JobStatus {
	return JobStatus{
		ID: e.ID, State: e.State, Spec: e.Spec, Attempts: e.Attempts,
		Error: e.Error, Digest: e.Digest, Replicas: e.Replicas,
	}
}

// storeShard is one append-only segment file plus its compaction
// accounting.
type storeShard struct {
	f    vfs.File
	path string
	// records counts lines in the file; live is the number of jobs whose
	// merged state lives here. The gap is compactable garbage.
	records int
	live    int
	// foreign is the set of jobs with records in this file that hash to a
	// different shard under the current shard count (a restart changed
	// -shards). Compaction must carry their merged state along: this file
	// may be the only durable home their records have, and a rewrite that
	// kept only currently-hashing jobs would silently drop them — a loss
	// the crash matrix catches the first time the power goes out.
	//
	// There is no dirty-tail flag any more: binary frames self-delimit,
	// so a record appended after a torn partial write is still recovered
	// at replay by scanning for the next frame marker (the JSONL format
	// needed a fresh-newline dance here to keep glued lines parseable).
	foreign map[string]bool
}

// Store is the crash-safe job/result store.
type Store struct {
	mu     sync.Mutex
	fsys   vfs.FS
	dir    string
	shards []*storeShard
	index  map[string]*JobEntry
	seq    int64
	nextID int64
	// compactMinRecords is the per-shard garbage floor below which
	// compaction is not worth a rewrite.
	compactMinRecords int
	// compactSkipSync, settable only from same-package tests, elides the
	// pre-rename fsync during compaction — the deliberately broken store
	// the crash matrix must catch (its sensitivity check).
	compactSkipSync bool
	warnings        []string
	// closed is set by Close; every mutator then fails with
	// ErrStoreClosed instead of writing to a released segment handle.
	closed bool
	// recBuf and encBuf are the append path's scratch buffers: record
	// payload and framed record respectively. Guarded by mu like the rest
	// of the store.
	recBuf []byte
	encBuf []byte
}

// ErrStoreClosed is returned by every Store mutator once Close has run.
// censerved keeps serving HTTP until its drain returns, so a write can
// race the close; callers answer it with 503 Service Unavailable.
var ErrStoreClosed = errors.New("serve: store closed")

// DefaultShards is the default shard count for a store directory.
const DefaultShards = 4

// OpenStore opens (creating if needed) a store directory on the real
// filesystem. See OpenStoreFS.
func OpenStore(dir string, nShards int) (*Store, error) {
	return OpenStoreFS(vfs.OS(), dir, nShards)
}

// OpenStoreFS opens (creating if needed) a store directory with nShards
// segment files, replays every segment present — including segments from
// runs with a different shard count — and repairs torn tails. The merged
// index is ready immediately after. All I/O goes through fsys, which is
// how the crash matrix substitutes its fault-injecting filesystem.
func OpenStoreFS(fsys vfs.FS, dir string, nShards int) (*Store, error) {
	if nShards < 1 {
		nShards = DefaultShards
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store dir: %w", err)
	}
	s := &Store{
		fsys:              fsys,
		dir:               dir,
		index:             make(map[string]*JobEntry),
		compactMinRecords: 64,
	}

	// Replay every segment on disk, not just the first nShards: a
	// restart with a smaller -shards must not orphan jobs. Legacy JSONL
	// segments replay alongside binary ones; only binary segments are
	// ever appended to.
	paths, err := vfs.Glob(fsys, dir, "shard-*.bin")
	if err != nil {
		return nil, err
	}
	legacy, err := vfs.Glob(fsys, dir, "shard-*.jsonl")
	if err != nil {
		return nil, err
	}
	paths = append(paths, legacy...)
	for i := 0; i < nShards; i++ {
		p := s.shardPath(i)
		found := false
		for _, q := range paths {
			if q == p {
				found = true
			}
		}
		if !found {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	type replayed struct {
		path    string
		records int
		ids     map[string]bool
	}
	var segs []replayed
	for _, p := range paths {
		n, ids, err := s.replaySegment(p)
		if err != nil {
			return nil, err
		}
		segs = append(segs, replayed{path: p, records: n, ids: ids})
	}

	// Open the first nShards for appending. Legacy segments beyond
	// nShards stay on disk read-only: their jobs are in the index and new
	// records for them append to the shard their ID now hashes to.
	for i := 0; i < nShards; i++ {
		p := s.shardPath(i)
		f, err := fsys.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		sh := &storeShard{f: f, path: p, foreign: make(map[string]bool)}
		for _, seg := range segs {
			if seg.path == p {
				sh.records = seg.records
			}
		}
		s.shards = append(s.shards, sh)
	}
	// A job hashes to a shard under the *current* count, but its records
	// sit wherever an earlier run put them. Mark those residents foreign so
	// compaction preserves them; legacy segments beyond nShards are never
	// rewritten, so their residents are safe as-is.
	for i, sh := range s.shards {
		for _, seg := range segs {
			if seg.path != sh.path {
				continue
			}
			for id := range seg.ids {
				if _, ok := s.index[id]; ok && s.shardFor(id) != i {
					sh.foreign[id] = true
				}
			}
		}
	}
	for _, e := range s.index {
		s.shards[s.shardFor(e.ID)].live++
	}
	for _, sh := range s.shards {
		sh.live += len(sh.foreign)
	}
	return s, nil
}

func (s *Store) shardPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%02d.bin", i))
}

// shardFor hashes a job ID to its owning shard.
func (s *Store) shardFor(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// replaySegment scans one segment file, merging records into the index in
// seq order (within a file, append order is seq order) and repairing a
// torn final record by truncating the file back to the last record
// boundary. The format is sniffed per file: binary frame segments are the
// live format, JSONL segments are the legacy read-only one. Returns the
// number of good records and the set of job IDs with records in this file
// (for foreign-resident accounting).
func (s *Store) replaySegment(path string) (int, map[string]bool, error) {
	f, err := s.fsys.Open(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	if isBinarySegment(path) {
		return s.replayBinarySegment(path, f)
	}
	return s.replayJSONLSegment(path, f)
}

// isBinarySegment keys the replay format off the segment name: the store
// only ever creates shard-*.bin (binary) and inherits shard-*.jsonl
// (legacy JSON lines). Name-based dispatch keeps an empty or torn-headed
// binary segment from being misread as JSONL.
func isBinarySegment(path string) bool {
	return filepath.Ext(path) == ".bin"
}

// replayBinarySegment replays one wire-framed segment. Interior
// corruption is skipped by marker resync (the appended-after-torn-write
// case); a torn tail is truncated back to the last frame boundary.
func (s *Store) replayBinarySegment(path string, f vfs.File) (int, map[string]bool, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: reading %s: %w", path, err)
	}
	r := wire.NewReader(data)
	records := 0
	ids := make(map[string]bool)
	for {
		payload, ok := r.Next()
		if !ok {
			break
		}
		rec, err := decodeStoreRecord(payload)
		if err != nil {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"serve: %s: skipping undecodable record: %v", filepath.Base(path), err))
			continue
		}
		s.mergeRecord(rec)
		ids[rec.ID] = true
		records++
	}
	for _, w := range r.Warnings() {
		s.warnings = append(s.warnings, fmt.Sprintf("serve: %s: %s", filepath.Base(path), w))
	}
	if truncateTo, torn := r.Torn(); torn {
		if err := s.fsys.Truncate(path, truncateTo); err != nil {
			return 0, nil, fmt.Errorf("serve: repairing %s: %w", path, err)
		}
		s.warnings = append(s.warnings, fmt.Sprintf(
			"serve: %s: truncated torn tail at byte %d", filepath.Base(path), truncateTo))
	}
	return records, ids, nil
}

// replayJSONLSegment replays one legacy JSON-lines segment, read-only
// except for torn-tail repair.
func (s *Store) replayJSONLSegment(path string, f vfs.File) (int, map[string]bool, error) {
	// A torn tail is an unparseable final line that is also unterminated —
	// the kill -9 mid-append artifact. An unparseable final line that DOES
	// end in a newline is interior damage (skip, don't truncate), so check
	// how the file ends before scanning.
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, nil, fmt.Errorf("serve: reading %s: %w", path, err)
	}
	endsWithNewline := end == 0
	if end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err != nil {
			return 0, nil, fmt.Errorf("serve: reading %s: %w", path, err)
		}
		endsWithNewline = last[0] == '\n'
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, fmt.Errorf("serve: reading %s: %w", path, err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var pos, lastGoodEnd int64 // byte offsets: current scan position, end of last good line
	records := 0
	line := 0
	tornTail := false
	ids := make(map[string]bool)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		pos += int64(len(raw)) + 1 // +1 for the newline (over-counts a final
		// unterminated line, which only ever matters when that line is torn —
		// and then truncation uses lastGoodEnd, not pos)
		if len(raw) == 0 {
			lastGoodEnd = pos
			continue
		}
		var rec storeRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			s.warnings = append(s.warnings, fmt.Sprintf(
				"serve: %s line %d: skipping torn record: %v", filepath.Base(path), line, err))
			tornTail = true
			continue
		}
		tornTail = false
		lastGoodEnd = pos
		s.mergeRecord(&rec)
		ids[rec.ID] = true
		records++
	}
	if err := sc.Err(); err != nil {
		return 0, nil, fmt.Errorf("serve: reading %s: %w", path, err)
	}
	if tornTail && !endsWithNewline {
		// The file ends in a torn record — the kill -9 mid-append
		// artifact. Truncate back to the last record boundary. (An
		// interior tear followed by good records is merely skipped:
		// truncating would drop the good tail too, and so would cutting a
		// newline-terminated final line that merely failed to parse.)
		if err := s.fsys.Truncate(path, lastGoodEnd); err != nil {
			return 0, nil, fmt.Errorf("serve: repairing %s: %w", path, err)
		}
		s.warnings = append(s.warnings, fmt.Sprintf(
			"serve: %s: truncated torn tail at byte %d", filepath.Base(path), lastGoodEnd))
	}
	return records, ids, nil
}

// mergeRecord folds one replayed record into the index. Records may
// arrive out of seq order across segments; the newest record wins the
// state, while spec and payload are kept from whichever record carried
// them.
func (s *Store) mergeRecord(rec *storeRecord) {
	e, ok := s.index[rec.ID]
	if !ok {
		e = &JobEntry{ID: rec.ID, Seq: rec.Seq}
		s.index[rec.ID] = e
	}
	if rec.Seq < e.Seq {
		e.Seq = rec.Seq // admission order = the job's earliest record
	}
	if rec.Spec != nil {
		e.Spec = *rec.Spec
	}
	if rec.Payload != nil {
		e.Payload = rec.Payload
	}
	eff := rec.Seq
	if rec.Merged > eff {
		eff = rec.Merged
	}
	if eff >= e.mergedSeq {
		e.mergedSeq = eff
		e.State = rec.State
		e.Error = rec.Error
		if rec.Attempts > 0 {
			e.Attempts = rec.Attempts
		}
		if rec.Digest != "" {
			e.Digest = rec.Digest
		}
		if len(rec.Replicas) > 0 {
			e.Replicas = rec.Replicas
		}
	}
	if eff > s.seq {
		s.seq = eff
	}
	if eff >= s.nextID {
		s.nextID = eff
	}
}

// AppendQueued persists a new job and returns its entry (ID assigned from
// the store sequence, so IDs survive restarts without collision).
func (s *Store) AppendQueued(spec JobSpec) (*JobEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("j-%08d", s.nextID)
	e := &JobEntry{ID: id, State: StateQueued, Spec: spec}
	rec := storeRecord{ID: id, State: StateQueued, Spec: &spec}
	if err := s.appendLocked(&rec); err != nil {
		return nil, err
	}
	e.Seq = rec.Seq
	e.mergedSeq = rec.Seq
	s.index[id] = e
	s.shards[s.shardFor(id)].live++
	return e, nil
}

// UpdateState persists a state transition for an existing job. payload
// accompanies StateDone; errMsg accompanies StateFailed.
func (s *Store) UpdateState(id string, state JobState, attempts int, errMsg string, payload json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return fmt.Errorf("serve: unknown job %s", id)
	}
	rec := storeRecord{ID: id, State: state, Attempts: attempts, Error: errMsg, Payload: payload}
	if err := s.appendLocked(&rec); err != nil {
		return err
	}
	e.State = state
	e.Attempts = attempts
	e.Error = errMsg
	e.mergedSeq = rec.Seq
	if payload != nil {
		e.Payload = payload
	}
	return s.maybeCompactLocked(s.shardFor(id))
}

// UpdateDone persists the done transition with its digest and replica
// set. payload may be nil when the bytes live only on remote replicas.
func (s *Store) UpdateDone(id string, attempts int, payload json.RawMessage, digest string, replicas []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return fmt.Errorf("serve: unknown job %s", id)
	}
	rec := storeRecord{ID: id, State: StateDone, Attempts: attempts,
		Payload: payload, Digest: digest, Replicas: replicas}
	if err := s.appendLocked(&rec); err != nil {
		return err
	}
	e.State = StateDone
	e.Attempts = attempts
	e.Error = ""
	e.mergedSeq = rec.Seq
	e.Digest = digest
	e.Replicas = replicas
	if payload != nil {
		e.Payload = payload
	}
	return s.maybeCompactLocked(s.shardFor(id))
}

// UpdateReplicas persists a new replica set for a done job — the
// read-repair and anti-entropy bookkeeping write. State, payload and
// digest are untouched.
func (s *Store) UpdateReplicas(id string, replicas []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return fmt.Errorf("serve: unknown job %s", id)
	}
	rec := storeRecord{ID: id, State: e.State, Attempts: e.Attempts,
		Error: e.Error, Digest: e.Digest, Replicas: replicas}
	if err := s.appendLocked(&rec); err != nil {
		return err
	}
	e.Replicas = replicas
	e.mergedSeq = rec.Seq
	return s.maybeCompactLocked(s.shardFor(id))
}

// PutResult inserts (or overwrites) a finished result under an external
// job ID — how a cluster worker stores a replica of a coordinator-owned
// job, and how repair pushes land. The record is durable (fsynced)
// before PutResult returns; completing a lease before this returns would
// acknowledge bytes that could still be lost.
func (s *Store) PutResult(id string, spec JobSpec, payload json.RawMessage, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := storeRecord{ID: id, State: StateDone, Spec: &spec,
		Payload: payload, Digest: digest}
	if err := s.appendLocked(&rec); err != nil {
		return err
	}
	e, ok := s.index[id]
	if !ok {
		e = &JobEntry{ID: id, Seq: rec.Seq}
		s.index[id] = e
		s.shards[s.shardFor(id)].live++
	}
	e.State = StateDone
	e.Spec = spec
	e.Payload = payload
	e.Digest = digest
	e.Error = ""
	e.mergedSeq = rec.Seq
	return s.maybeCompactLocked(s.shardFor(id))
}

// appendLocked assigns the next sequence number, writes the record as one
// binary frame, and fsyncs the shard so an acknowledged transition
// survives a kill -9. The frame is built in the store's scratch buffer —
// the append path allocates nothing once the buffer has grown to record
// size. A partial write needs no special handling: the next frame's
// marker lets replay resync past the torn bytes.
func (s *Store) appendLocked(rec *storeRecord) error {
	if s.closed {
		return ErrStoreClosed
	}
	s.seq++
	rec.Seq = s.seq
	if rec.Seq > s.nextID {
		s.nextID = rec.Seq
	}
	sh := s.shards[s.shardFor(rec.ID)]
	s.recBuf = appendStoreRecord(s.recBuf[:0], rec)
	s.encBuf = wire.AppendFrame(s.encBuf[:0], s.recBuf)
	if _, err := sh.f.Write(s.encBuf); err != nil {
		return fmt.Errorf("serve: append %s: %w", sh.path, err)
	}
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("serve: sync %s: %w", sh.path, err)
	}
	sh.records++
	return nil
}

// maybeCompactLocked rewrites a shard when it holds more garbage than
// live state: one merged record per job, written to a temp file and
// renamed over the segment, so a crash at any point leaves either the
// old or the new segment intact.
func (s *Store) maybeCompactLocked(i int) error {
	sh := s.shards[i]
	garbage := sh.records - sh.live
	if garbage <= sh.live || sh.records < s.compactMinRecords {
		return nil
	}
	return s.compactLocked(i)
}

func (s *Store) compactLocked(i int) error {
	sh := s.shards[i]
	// Collect this shard's jobs in seq order for a stable segment layout:
	// the jobs hashing here plus the foreign residents a shard-count change
	// stranded in this file. Dropping a foreign resident would erase its
	// only durable records — the compaction-across-reshard loss the crash
	// matrix exists to catch.
	var entries []*JobEntry
	for _, e := range s.index {
		if s.shardFor(e.ID) == i || sh.foreign[e.ID] {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Seq < entries[b].Seq })

	tmp := sh.path + ".tmp"
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range entries {
		spec := e.Spec
		rec := storeRecord{
			Seq: e.Seq, ID: e.ID, State: e.State, Spec: &spec,
			Attempts: e.Attempts, Error: e.Error, Payload: e.Payload,
			Digest: e.Digest, Replicas: e.Replicas,
		}
		if e.mergedSeq > e.Seq {
			rec.Merged = e.mergedSeq
		}
		s.recBuf = appendStoreRecord(s.recBuf[:0], &rec)
		s.encBuf = wire.AppendFrame(s.encBuf[:0], s.recBuf)
		if _, err := w.Write(s.encBuf); err != nil {
			f.Close()
			s.fsys.Remove(tmp)
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if !s.compactSkipSync {
		if err := f.Sync(); err != nil {
			f.Close()
			s.fsys.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, sh.path); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	sh.f.Close()
	nf, err := s.fsys.OpenFile(sh.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: reopening compacted %s: %w", sh.path, err)
	}
	sh.f = nf
	sh.records = len(entries)
	sh.live = len(entries)
	// Make the rename itself durable before any record is acknowledged
	// against the new segment: on filesystems that don't order metadata
	// behind file fsyncs, a crash could otherwise revert the name to the
	// old segment and orphan everything appended after the swap.
	if err := s.fsys.SyncDir(s.dir); err != nil {
		return fmt.Errorf("serve: syncing dir after compacting %s: %w", sh.path, err)
	}
	return nil
}

// Get returns a copy of the job's merged entry.
func (s *Store) Get(id string) (JobEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[id]
	if !ok {
		return JobEntry{}, false
	}
	return *e, true
}

// Pending returns the jobs whose latest durable state is queued or
// running, in admission order — what a restart re-enqueues. A job that
// was mid-flight when the daemon died is simply re-run: results are a
// pure function of the spec, so a re-run converges on the same bytes.
func (s *Store) Pending() []JobEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobEntry
	for _, e := range s.index {
		if e.State == StateQueued || e.State == StateRunning {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// List returns every job in admission order, optionally filtered to one
// state (empty state means all) — the backing for GET /v1/jobs and its
// ?state=dead dead-letter query.
func (s *Store) List(state JobState) []JobEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobEntry
	for _, e := range s.index {
		if state == "" || e.State == state {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of indexed jobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Warnings returns the replay-time warnings (torn records dropped,
// segments repaired).
func (s *Store) Warnings() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.warnings...)
}

// ExportJSON writes the merged index as JSON lines in admission order —
// the human-readable debug view of the binary segments (one fully merged
// record per job, the same shape compaction used to persist). This is
// what `censerved -export-store` prints and what CI pipes through jq.
func (s *Store) ExportJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := make([]*JobEntry, 0, len(s.index))
	for _, e := range s.index {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].Seq < entries[b].Seq })
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		spec := e.Spec
		rec := storeRecord{
			Seq: e.Seq, ID: e.ID, State: e.State, Spec: &spec,
			Attempts: e.Attempts, Error: e.Error, Payload: e.Payload,
			Digest: e.Digest, Replicas: e.Replicas,
		}
		if e.mergedSeq > e.Seq {
			rec.Merged = e.mergedSeq
		}
		raw, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("serve: export marshal: %w", err)
		}
		raw = append(raw, '\n')
		if _, err := bw.Write(raw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Compact force-compacts every shard — part of the drain sequence, so a
// long-lived daemon hands the next start minimal segments.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	for i := range s.shards {
		if s.shards[i].records > s.shards[i].live {
			if err := s.compactLocked(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close syncs and closes every shard. Reads keep working from the
// in-memory index; mutators return ErrStoreClosed. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, sh := range s.shards {
		if sh.f == nil {
			continue
		}
		if err := sh.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := sh.f.Close(); err != nil && first == nil {
			first = err
		}
		sh.f = nil
	}
	return first
}

func (s *Store) closeAll() {
	for _, sh := range s.shards {
		if sh.f != nil {
			sh.f.Close()
		}
	}
}
