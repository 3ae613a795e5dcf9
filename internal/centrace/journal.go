package centrace

// Campaign checkpoint/resume: a Journal is an append-only log of resolved
// targets, one length-prefixed binary frame per record (internal/wire;
// DESIGN.md §14). A campaign given a journal records each target as it
// resolves and, on a later run over the same target list, restores
// recorded results instead of re-measuring — so a crashed or interrupted
// collection picks up where it left off, the way the paper's multi-week
// measurement campaigns had to. A journal answers Lookup and Len from
// the entries it restored; what a run records goes to the log only, so
// a journaled campaign keeps no more of its results in memory than an
// unjournaled one.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// journalEntry is the on-disk form of one resolved target.
type journalEntry struct {
	Key      string
	Endpoint string
	Domain   string
	Protocol string
	Label    string
	Error    string
	Result   *Result
}

// Journal is a campaign results log supporting checkpoint and resume.
// Journals are safe for concurrent use: parallel campaign workers resolve
// targets from many goroutines, so the writer and the encoding scratch
// buffers are guarded by a mutex — each entry reaches the log as one
// uninterleaved frame.
type Journal struct {
	mu sync.Mutex
	// entries are the records ResumeJournal restored, by target key;
	// Record does not add to them.
	entries  map[string]journalEntry
	w        io.Writer
	err      error
	warnings []string
	// recBuf/encBuf are the append path's scratch buffers (record payload
	// and framed record); they grow to the high-water record size and are
	// reused, so steady-state appends do not allocate. Guarded by mu.
	recBuf, encBuf []byte
	// tornAt/torn report a torn final frame found during resume:
	// the offset to truncate back to so the next append starts on a clean
	// frame boundary. OpenJournalFileFS performs the truncation.
	tornAt int64
	torn   bool
}

// NewJournal returns an empty journal appending entries to w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{entries: make(map[string]journalEntry), w: w}
}

// ResumeJournal loads previously recorded entries from r and appends new
// entries to w. Either may be nil: a nil r resumes nothing, a nil w
// records nothing.
//
// Every journal this package writes starts with a frame, and a torn
// first write keeps a prefix of one, so non-empty input whose first byte
// is not the frame marker's is not a journal: ResumeJournal refuses it
// with an error rather than treat it as a torn tail to truncate. A
// record that fails to parse — the truncated final record a crash
// mid-Record leaves behind, or an interior record torn by a filesystem
// that reordered writes around a power cut — is skipped with a warning
// (see Warnings) instead of failing the whole resume: every parseable
// record is still restored, and the skipped target is simply
// re-measured.
func ResumeJournal(r io.Reader, w io.Writer) (*Journal, error) {
	j := NewJournal(w)
	if r == nil {
		return j, nil
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("centrace: reading journal: %w", err)
	}
	if len(raw) > 0 && raw[0] != wire.Marker[0] {
		return nil, fmt.Errorf("centrace: not a journal: first byte %#02x, want frame marker %#02x",
			raw[0], wire.Marker[0])
	}
	rd := wire.NewReader(raw)
	for {
		payload, ok := rd.Next()
		if !ok {
			break
		}
		e, err := decodeJournalEntry(payload)
		if err != nil {
			j.warnings = append(j.warnings, fmt.Sprintf(
				"centrace: journal: skipping undecodable record: %v", err))
			continue
		}
		j.entries[e.Key] = e
	}
	for _, w := range rd.Warnings() {
		j.warnings = append(j.warnings, "centrace: journal: "+w)
	}
	j.tornAt, j.torn = rd.Torn()
	return j, nil
}

// Warnings returns the resume-time warnings: one per skipped record,
// skipped region or torn tail, plus the torn-tail truncation
// OpenJournalFileFS performs. Callers surface them so a silently
// shrinking journal does not go unnoticed.
func (j *Journal) Warnings() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.warnings...)
}

// OpenJournalFile opens (creating if needed) a journal file on the real
// filesystem. See OpenJournalFileFS.
func OpenJournalFile(path string) (*Journal, vfs.File, error) {
	return OpenJournalFileFS(vfs.OS(), path)
}

// OpenJournalFileFS opens (creating if needed) a journal file, loads its
// entries, and positions it for appending. The caller owns closing the
// returned file. All I/O goes through fsys so the crash matrix can run
// resume against an injected-fault filesystem.
func OpenJournalFileFS(fsys vfs.FS, path string) (*Journal, vfs.File, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j, err := ResumeJournal(f, f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A crash mid-Record leaves a torn tail: cut it back to the last good
	// frame boundary so the next append starts clean (the dropped target
	// is simply re-measured).
	if _, torn := j.Torn(); torn {
		if err := fsys.Truncate(path, j.tornAt); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.warnings = append(j.warnings, fmt.Sprintf(
			"centrace: journal: truncated torn tail at byte %d", j.tornAt))
	}
	// Resume left the offset at the old end of file; after a truncation
	// that is past the new end, so move it back before the first append.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, f, nil
}

// Torn reports whether resume found a torn final frame, and the offset
// of the last good frame boundary. OpenJournalFileFS uses it to repair
// the file; callers resuming from a bare reader can use it to do the
// same.
func (j *Journal) Torn() (truncateTo int64, torn bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tornAt, j.torn
}

// Lookup returns the restored result for a target, if any.
func (j *Journal) Lookup(t Target) (CampaignResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[t.Key()]
	if !ok {
		return CampaignResult{}, false
	}
	cr := CampaignResult{Target: t, Result: e.Result}
	if e.Error != "" {
		cr.Err = errors.New(e.Error)
	}
	return cr, true
}

// Record checkpoints one resolved target to the log; Lookup and Len do
// not see it until a later resume. Write failures are remembered (see
// Err) rather than aborting the campaign: losing a checkpoint is
// strictly better than losing the measurement.
func (j *Journal) Record(cr CampaignResult) {
	if j.w == nil {
		return
	}
	e := journalEntry{
		Key:      cr.Target.Key(),
		Domain:   cr.Target.Domain,
		Protocol: cr.Target.Protocol.String(),
		Label:    cr.Target.Label,
		Result:   cr.Result,
	}
	if cr.Target.Endpoint != nil {
		e.Endpoint = cr.Target.Endpoint.ID
	}
	if cr.Err != nil {
		e.Error = cr.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recBuf = appendJournalEntry(j.recBuf[:0], &e)
	j.encBuf = wire.AppendFrame(j.encBuf[:0], j.recBuf)
	if _, err := j.w.Write(j.encBuf); err != nil {
		j.err = fmt.Errorf("centrace: journal write: %w", err)
	}
}

// Len returns the number of restored entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Err returns the first write error the journal swallowed, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
