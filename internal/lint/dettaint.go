package lint

import (
	"go/ast"
	"go/types"
	"strconv"

	"cendev/internal/lint/analysis"
	"cendev/internal/lint/ipa"
)

// DetTaint forbids nondeterminism sources in deterministic packages: a
// wall-clock read or a draw from the process-global math/rand generator,
// whether the package references the source itself or calls a module
// function that reaches it at any depth (a helper in a "free" package
// laundering time.Now()). ipa.Config.SourceOf decides what a source is
// for both. A call chain is reported with its witness; a call into
// another deterministic package is not, because the source is flagged
// (or deliberately annotated) where it occurs. crypto/rand is reported
// at its import, which also covers crand.Reader, a variable no function
// table can see.
//
// The approved sources are the simnet virtual clock, an injected
// now-func, and a *rand.Rand seeded from the spec (faults.DeriveSeed):
// rand.New* constructors and methods on threaded time.Time or *rand.Rand
// values are not sources.
var DetTaint = &analysis.Analyzer{
	Name: "dettaint",
	Doc: "forbid wall-clock reads, global math/rand and crypto/rand in deterministic packages, " +
		"directly or through calls into module functions that reach them; the diagnostic shows the call chain",
	Run: runDetTaint,
}

// detText phrases each source kind for diagnostics.
var detText = map[ipa.Kind]struct{ does, remedy string }{
	ipa.KindWallClock:  {"reads the wall clock", "thread the virtual clock or an injected now-func"},
	ipa.KindGlobalRand: {"uses the process-global generator", "thread a seeded *rand.Rand"},
}

func runDetTaint(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	cfg := pass.Facts.Config()
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == "crypto/rand" {
				pass.Reportf(imp.Pos(),
					"crypto/rand imported in deterministic package %s; results must be reproducible from the spec seed — derive a *math/rand.Rand via faults.DeriveSeed instead",
					pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if k, ok := cfg.SourceOf(fn); ok {
				if path != "crypto/rand" { // reported once, at its import
					pass.Reportf(id.Pos(),
						"%s.%s %s in deterministic package %s; %s instead (or annotate //cenlint:volatile <why>)",
						path, fn.Name(), detText[k].does, pass.Pkg.Path(), detText[k].remedy)
				}
				return true
			}
			if !pass.Facts.IsLocal(path) || isDeterministic(path) {
				return true
			}
			for _, k := range []ipa.Kind{ipa.KindWallClock, ipa.KindGlobalRand} {
				chain := pass.Facts.TaintChain(fn.FullName(), k)
				if chain == nil {
					continue
				}
				pass.Reportf(id.Pos(),
					"call into %s reaches %s (%s) from deterministic package %s: %s; %s (or annotate //cenlint:volatile <why>)",
					ipa.ShortName(fn.FullName()), chain[len(chain)-1], k, pass.Pkg.Path(),
					ipa.FormatChain(chain), detText[k].remedy)
			}
			return true
		})
	}
	return nil
}
