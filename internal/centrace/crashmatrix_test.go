package centrace

// The campaign journal's crash matrix: every filesystem operation across
// open → record → sync → ack → close → resume is an injection point, for
// every fault mode, across many seeds. The invariant matches how a
// campaign uses the journal: a target is only skipped on resume (not
// re-measured) if its Record was followed by a successful Sync — so any
// such acknowledged checkpoint must survive a crash, byte-exact. A
// workload that acknowledges without syncing must fail the same matrix.

import (
	"errors"
	"fmt"
	"testing"

	"cendev/internal/vfs"
	"cendev/internal/vfs/crashtest"
)

func matrixTarget(i int) Target {
	return Target{
		Domain:   fmt.Sprintf("blocked-%02d.example", i),
		Protocol: HTTP,
		Label:    "CN",
	}
}

// journalWorkload records a campaign's worth of per-target failures,
// acknowledging each checkpoint the journal reported durable (recorded
// without error, then synced). Halfway through it closes and resumes —
// the interrupted-campaign path — and keeps recording.
func journalWorkload(syncBeforeAck bool) func(fsys vfs.FS, ack *crashtest.Acks) error {
	record := func(j *Journal, f vfs.File, ack *crashtest.Acks, i int) {
		t := matrixTarget(i)
		msg := fmt.Sprintf("probe: unreachable %d", i)
		j.Record(CampaignResult{Target: t, Err: errors.New(msg)})
		if j.Err() != nil {
			return
		}
		if syncBeforeAck && f.Sync() != nil {
			return
		}
		ack.Ack(t.Key(), msg)
	}
	return func(fsys vfs.FS, ack *crashtest.Acks) error {
		j, f, err := OpenJournalFileFS(fsys, "campaign.journal")
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			record(j, f, ack, i)
		}
		if !syncBeforeAck {
			// The buggy variant batches durability to session end: acks
			// issued above have no barrier behind them until here.
			_ = f.Sync()
		}
		f.Close()

		j2, f2, err := OpenJournalFileFS(fsys, "campaign.journal")
		if err != nil {
			return err
		}
		for i := 5; i < 8; i++ {
			record(j2, f2, ack, i)
		}
		if !syncBeforeAck {
			_ = f2.Sync()
		}
		f2.Close()
		return nil
	}
}

// journalVerify resumes the journal post-crash and checks every
// acknowledged checkpoint is restored with its exact recorded error, and
// that a second resume agrees with the first (recovery idempotent).
func journalVerify(fsys vfs.FS, acked map[string]string) error {
	j, f, err := OpenJournalFileFS(fsys, "campaign.journal")
	if err != nil {
		return fmt.Errorf("post-crash resume failed: %w", err)
	}
	f.Close()
	for i := 0; i < 8; i++ {
		t := matrixTarget(i)
		want, wasAcked := acked[t.Key()]
		if !wasAcked {
			continue
		}
		cr, found := j.Lookup(t)
		if !found {
			return fmt.Errorf("acknowledged checkpoint %s lost after crash", t.Key())
		}
		if cr.Err == nil || cr.Err.Error() != want {
			return fmt.Errorf("checkpoint %s resumed with error %v, acknowledged %q", t.Key(), cr.Err, want)
		}
	}

	j2, f2, err := OpenJournalFileFS(fsys, "campaign.journal")
	if err != nil {
		return fmt.Errorf("second resume failed: %w", err)
	}
	f2.Close()
	if j2.Len() != j.Len() {
		return fmt.Errorf("resume not idempotent: first saw %d entries, second %d", j.Len(), j2.Len())
	}
	return nil
}

// TestCrashMatrixJournal is the journal's acceptance gate: zero
// violations across every injection point × mode × seed.
func TestCrashMatrixJournal(t *testing.T) {
	res := crashtest.RunT(t, crashtest.Config{
		Workload: journalWorkload(true),
		Verify:   journalVerify,
	})
	t.Logf("journal matrix: %d injection points, %d cells", res.Points, res.Cells)
}

// TestCrashMatrixCatchesUnsyncedAck proves the matrix has teeth against
// the journal too: acknowledging checkpoints with only an end-of-session
// Sync behind them (no per-record barrier) must produce violations.
func TestCrashMatrixCatchesUnsyncedAck(t *testing.T) {
	res, err := crashtest.Run(crashtest.Config{
		Seeds:    []int64{1, 2, 3, 4, 5, 6, 7, 8},
		Modes:    []crashtest.Mode{crashtest.ModeCrash},
		Workload: journalWorkload(false),
		Verify:   journalVerify,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("journal acknowledging unsynced checkpoints passed the crash matrix: harness cannot see the bug it exists for")
	}
	t.Logf("unsynced ack caught: %d violations, e.g. %s", len(res.Violations), res.Violations[0])
}
