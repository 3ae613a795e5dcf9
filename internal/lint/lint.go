// Package lint holds the repo-specific cenlint analyzers. Every result
// this reproduction emits — CenTrace hop inference, CenFuzz verdicts,
// obs canonical snapshots, censerved job payloads — is promised to be
// byte-identical for a given spec+seed at any worker count. These
// analyzers turn that promise from convention into a machine-checked
// invariant: wall-clock reads, global randomness, unordered map
// iteration feeding output, and rename-without-fsync persistence bugs
// are all compile-time-adjacent failures instead of flaky-diff hunts.
//
// The universal escape hatch is the //cenlint:volatile directive (with a
// mandatory justification), scanned by the driver: it suppresses any
// cenlint diagnostic on its own line or the line below it.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"cendev/internal/lint/analysis"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of spec+seed. dettaint, maprange and goleak apply here (and
// to their subpackages). internal/parallel, internal/serve and
// internal/cluster are included deliberately: their wall-clock use is
// real but intentional (latency gauges, admission clocks, long-poll
// park timers) and must carry an explicit //cenlint:volatile
// justification rather than pass silently.
var deterministicPkgs = []string{
	"cendev/internal/simnet",
	"cendev/internal/centrace",
	"cendev/internal/cluster",
	"cendev/internal/cenfuzz",
	"cendev/internal/cenprobe",
	"cendev/internal/faults",
	"cendev/internal/features",
	"cendev/internal/ml",
	"cendev/internal/experiments",
	"cendev/internal/evolve",
	"cendev/internal/obs",
	"cendev/internal/parallel",
	"cendev/internal/routedyn",
	"cendev/internal/serve",
	"cendev/internal/tomography",
	"cendev/internal/vfs",
	"cendev/internal/wire",
}

// journalPkgs are the packages bound by the fsync-before-rename
// persistence contract: the censerved sharded store, the centrace
// campaign journal, the shared wire framing they encode through, the
// vfs seam they write through (WriteFileDurable is itself a
// temp+fsync+rename implementation), and obs, whose
// -metrics-out/-trace-out artifacts publish by rename.
var journalPkgs = []string{
	"cendev/internal/serve",
	"cendev/internal/cluster",
	"cendev/internal/wire",
	"cendev/internal/centrace",
	"cendev/internal/vfs",
	"cendev/internal/obs",
}

func pathIn(path string, set []string) bool {
	for _, p := range set {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func isDeterministic(path string) bool { return pathIn(path, deterministicPkgs) }

// All returns the full analyzer suite in reporting order: the three
// syntactic analyzers, then the four built on the ipa summary engine.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapRange, FsyncRename, ErrWrapDir,
		DetTaint, PoolEscape, LockDiscipline, GoLeak,
	}
}

// pkgFunc resolves an identifier use to a package-level function (no
// receiver) and returns it, or nil.
func pkgFunc(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// calleeIs reports whether call invokes the package-level function
// pkgPath.name.
func calleeIs(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := pkgFunc(info, sel.Sel)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// methodOf resolves a selector identifier to the method it invokes —
// interface or concrete receiver alike (pkgFunc deliberately rejects
// receivers) — and returns it, or nil for non-methods.
func methodOf(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil
	}
	return fn
}

// calleeIsMethod reports whether call invokes a method declared in
// pkgPath with one of the given names.
func calleeIsMethod(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := methodOf(info, sel.Sel)
	if fn == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
