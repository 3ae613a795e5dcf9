// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer is a named
// check, a Pass hands it one type-checked package, and diagnostics flow
// back through Report. The build environment for this repo is fully
// offline (no module proxy, empty module cache), so the real x/tools
// framework cannot be vendored; this package keeps the same shape so the
// analyzers in internal/lint port to the upstream API mechanically if
// x/tools ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"cendev/internal/lint/ipa"
)

// Analyzer describes one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI output.
	Name string
	// Doc is the one-paragraph description shown by `cenlint -help`.
	Doc string
	// Run applies the check to one package, reporting findings through
	// pass.Report. A non-nil error aborts the whole lint run — reserve it
	// for internal failures, not findings.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds the module's resolved interprocedural summaries
	// (cendev/internal/lint/ipa), populated bottom-up by the driver
	// before this package's pass runs. It is never nil.
	Facts  *ipa.Program
	Report func(Diagnostic)
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
