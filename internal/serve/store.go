package serve

// The result store is a sharded append-only journal, the service-scale
// descendant of the centrace campaign Journal: every job-state transition
// is one binary record frame (internal/wire, DESIGN.md §14) appended (and
// fsynced) to the shard-NN.bin segment its job ID hashes to, an in-memory
// index holds the merged latest view, and reopening a directory replays
// every segment — tolerating the torn final frame a kill -9 mid-append
// leaves behind by truncating it away — so a crashed daemon restarts into
// exactly the set of durable jobs. Binary frames are the only on-disk
// format; JSON is the export/debug view (ExportJSON). A mutator appends
// its record and then folds it into the index with the merge replay
// uses, so the live index is always the one a reopen rebuilds. Shards
// bound compaction work: when a shard accumulates more superseded
// records than live ones it is rewritten in place (write-temp, rename)
// from the merged index. They do not spread fsyncs: appendLocked holds
// the store-wide mutex across Write and Sync, so appends are serialized
// whatever the shard count.

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
	// survive in segments beyond the shard count, while Seq keeps the
	// job's admission order.
	Merged   int64           `json:"merged,omitempty"`
	ID       string          `json:"id"`
	State    JobState        `json:"state"`
	Spec     *JobSpec        `json:"spec,omitempty"`
	Attempts int             `json:"attempts,omitempty"`
	Error    string          `json:"error,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	// Digest is the hex SHA-256 of the result payload; Replicas names
	// the cluster nodes holding a durable copy. Both ride along with
	// done records.
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

// record renders the entry as one fully merged record: what compaction
// persists and ExportJSON prints.
func (e *JobEntry) record() *storeRecord {
	rec := &storeRecord{
		Seq: e.Seq, ID: e.ID, State: e.State, Spec: &e.Spec,
		Attempts: e.Attempts, Error: e.Error, Payload: e.Payload,
		Digest: e.Digest, Replicas: e.Replicas,
	}
	if e.mergedSeq > e.Seq {
		rec.Merged = e.mergedSeq
	}
	return rec
}

// storeShard is one append-only segment file plus its compaction
// accounting.
type storeShard struct {
	f    vfs.File
	path string
	// records counts frames in the file; live is the number of jobs whose
	// merged state lives here. The gap is compactable garbage.
	records int
	live    int
	// foreign is the set of jobs with records in this file that hash to a
	// different shard under the current shard count (a restart changed
	// it). Compaction must carry their merged state along: this file may
	// be the only durable home their records have, and a rewrite that
	// kept only currently-hashing jobs would silently drop them — a loss
	// the crash matrix catches the first time the power goes out.
	foreign map[string]bool
}

// Store is the crash-safe job/result store.
type Store struct {
	mu     sync.Mutex
	fsys   vfs.FS
	dir    string
	shards []*storeShard
	index  map[string]*JobEntry
	// seq is the highest record seq appended or replayed; a new job's ID
	// is the seq of its queued record.
	seq int64
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
	// restart with a smaller shard count must not orphan jobs.
	paths, err := vfs.Glob(fsys, dir, "shard-*.bin")
	if err != nil {
		return nil, err
	}
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

	// Open the first nShards for appending. Segments beyond nShards stay
	// on disk read-only: their jobs are in the index and new records for
	// them append to the shard their ID now hashes to.
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
	// compaction preserves them; segments beyond nShards are never
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
// seq order (within a file, append order is seq order). Interior
// corruption is skipped by marker resync (the appended-after-torn-write
// case); a torn tail is truncated back to the last frame boundary.
// Returns the number of good records and the set of job IDs with records
// in this file (for foreign-resident accounting).
func (s *Store) replaySegment(path string) (int, map[string]bool, error) {
	f, err := s.fsys.Open(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
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

// mergeRecord folds one record into the index, whether replayed or just
// appended by a mutator, and reports whether it created the job's entry.
// Records may arrive out of seq order across segments; the newest record
// wins the state, while spec and payload are kept from whichever record
// carried them, and a record without attempts, digest or replicas keeps
// the entry's.
func (s *Store) mergeRecord(rec *storeRecord) bool {
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
	if len(rec.Payload) > 0 {
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
	return !ok
}

// AppendQueued persists a new job and returns a copy of its entry. The
// job's ID is the seq of its queued record, so IDs survive restarts
// without collision.
func (s *Store) AppendQueued(spec JobSpec) (*JobEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := storeRecord{ID: fmt.Sprintf("j-%08d", s.seq+1), State: StateQueued, Spec: &spec}
	if err := s.applyLocked(&rec); err != nil {
		return nil, err
	}
	e := *s.index[rec.ID]
	return &e, nil
}

// UpdateState persists a state transition for an existing job. payload
// accompanies StateDone; errMsg accompanies StateFailed.
func (s *Store) UpdateState(id string, state JobState, attempts int, errMsg string, payload json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updateLocked(&storeRecord{ID: id, State: state, Attempts: attempts, Error: errMsg, Payload: payload})
}

// UpdateDone persists the done transition with its digest and replica
// set. payload may be nil when the bytes live only on remote replicas.
func (s *Store) UpdateDone(id string, attempts int, payload json.RawMessage, digest string, replicas []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.updateLocked(&storeRecord{ID: id, State: StateDone, Attempts: attempts,
		Payload: payload, Digest: digest, Replicas: replicas})
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
	// The record restates the entry's state: replay takes a job's state
	// from its newest record, whichever segment the older ones are in.
	return s.updateLocked(&storeRecord{ID: id, State: e.State, Attempts: e.Attempts,
		Error: e.Error, Digest: e.Digest, Replicas: replicas})
}

// PutResult inserts (or overwrites) a finished result under an external
// job ID — how a cluster worker stores a replica of a coordinator-owned
// job, and how repair pushes land. The record is durable (fsynced)
// before PutResult returns; completing a lease before this returns would
// acknowledge bytes that could still be lost.
func (s *Store) PutResult(id string, spec JobSpec, payload json.RawMessage, digest string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyLocked(&storeRecord{ID: id, State: StateDone, Spec: &spec,
		Payload: payload, Digest: digest}); err != nil {
		return err
	}
	return s.maybeCompactLocked(s.shardFor(id))
}

// updateLocked applies rec to a job the store holds, then compacts the
// job's shard if it is due.
func (s *Store) updateLocked(rec *storeRecord) error {
	if _, ok := s.index[rec.ID]; !ok {
		return fmt.Errorf("serve: unknown job %s", rec.ID)
	}
	if err := s.applyLocked(rec); err != nil {
		return err
	}
	return s.maybeCompactLocked(s.shardFor(rec.ID))
}

// applyLocked appends rec and folds it into the index through
// mergeRecord, counting a job it creates as live in its shard.
func (s *Store) applyLocked(rec *storeRecord) error {
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	if s.mergeRecord(rec) {
		s.shards[s.shardFor(rec.ID)].live++
	}
	return nil
}

// appendLocked assigns the next sequence number, writes the record as one
// binary frame, and fsyncs the shard so an acknowledged transition
// survives a kill -9. A record whose spec cannot be encoded writes
// nothing and takes no seq. The frame is built in the store's scratch
// buffer — the append path allocates nothing once the buffer has grown
// to record size, unless the record carries a spec. A partial write needs
// no special handling: the next frame's marker lets replay resync past
// the torn bytes.
func (s *Store) appendLocked(rec *storeRecord) error {
	if s.closed {
		return ErrStoreClosed
	}
	rec.Seq = s.seq + 1
	var err error
	if s.recBuf, err = appendStoreRecord(s.recBuf[:0], rec); err != nil {
		return err
	}
	s.seq = rec.Seq
	sh := s.shards[s.shardFor(rec.ID)]
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
		if s.recBuf, err = appendStoreRecord(s.recBuf[:0], e.record()); err != nil {
			f.Close()
			s.fsys.Remove(tmp)
			return err
		}
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

// DoneDigests returns the ID → digest pairs of every done job that has a
// digest. It makes one pass over the index and copies two strings per
// job: unlike List, it copies no entry and sorts nothing, so an
// anti-entropy query stays a linear scan.
func (s *Store) DoneDigests() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.index))
	for _, e := range s.index {
		if e.State == StateDone && e.Digest != "" {
			out[e.ID] = e.Digest
		}
	}
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
		raw, err := json.Marshal(e.record())
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
