package lint_test

import (
	"testing"

	"cendev/internal/lint"
	"cendev/internal/lint/driver"
	"cendev/internal/lint/lintest"
)

// Each analyzer is exercised against fixture packages demonstrating at
// least one caught violation, one legal non-violation, and one
// suppressed-by-directive case — plus a package outside its scope where
// the same code must stay silent.

// TestDetClockFixtures and TestSeededRandFixtures pin dettaint's direct
// sources, wall clock and randomness; TestDetTaintFixtures pins the
// sources it finds through call chains.

func TestDetClockFixtures(t *testing.T) {
	lintest.Run(t, "testdata/dettaint/clock/det", lint.DetTaint)
	lintest.Run(t, "testdata/dettaint/clock/free", lint.DetTaint)
}

func TestSeededRandFixtures(t *testing.T) {
	lintest.Run(t, "testdata/dettaint/rand/det", lint.DetTaint)
	lintest.Run(t, "testdata/dettaint/rand/free", lint.DetTaint)
}

func TestMapRangeFixtures(t *testing.T) {
	lintest.Run(t, "testdata/maprange/det", lint.MapRange)
	lintest.Run(t, "testdata/maprange/free", lint.MapRange)
}

func TestFsyncRenameFixtures(t *testing.T) {
	lintest.Run(t, "testdata/fsyncrename/journal", lint.FsyncRename)
	lintest.Run(t, "testdata/fsyncrename/vfsjournal", lint.FsyncRename)
	lintest.Run(t, "testdata/fsyncrename/other", lint.FsyncRename)
}

func TestErrWrapDirFixtures(t *testing.T) {
	lintest.Run(t, "testdata/errwrapdir/wrap", lint.ErrWrapDir)
}

func TestDetTaintFixtures(t *testing.T) {
	lintest.Run(t, "testdata/dettaint/chain/det", lint.DetTaint)
	lintest.Run(t, "testdata/dettaint/chain/free", lint.DetTaint)
}

func TestPoolEscapeFixtures(t *testing.T) {
	lintest.Run(t, "testdata/poolescape/simnet", lint.PoolEscape)
}

func TestLockDisciplineFixtures(t *testing.T) {
	lintest.Run(t, "testdata/lockdiscipline/locked", lint.LockDiscipline)
	lintest.Run(t, "testdata/lockdiscipline/free", lint.LockDiscipline)
}

func TestGoLeakFixtures(t *testing.T) {
	lintest.Run(t, "testdata/goleak/det", lint.GoLeak)
	lintest.Run(t, "testdata/goleak/free", lint.GoLeak)
}

// TestUnusedSuppressionAudit exercises the driver's audit mode: a
// directive that suppresses nothing, or carries no justification, is a
// finding of the pseudo-analyzer "cenlint".
func TestUnusedSuppressionAudit(t *testing.T) {
	lintest.RunAudit(t, "testdata/directives/unused", lint.DetTaint)
}

// TestRepoIsClean is the meta-gate: the full analyzer suite must report
// zero diagnostics across the whole module. Any new wall-clock read,
// global-rand use, unsorted map-fed output, or rename-without-fsync in a
// guarded package fails this test (and the cenlint ci.sh stage) until it
// is fixed or carries a justified //cenlint:volatile annotation.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("re-type-checks the whole module; skipped in -short")
	}
	findings, stats, err := driver.Analyze(driver.Options{
		Patterns:  []string{"cendev/..."},
		Analyzers: lint.All(),
		Audit:     true,
	})
	if err != nil {
		t.Fatalf("analyzing module packages: %v", err)
	}
	if stats.Packages < 20 {
		t.Fatalf("suspiciously few packages analyzed (%d); pattern broken?", stats.Packages)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
