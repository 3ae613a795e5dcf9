package lint

import (
	"go/ast"
	"go/token"

	"cendev/internal/lint/analysis"
	"cendev/internal/lint/ipa"
)

// GoLeak forbids unstoppable goroutines in deterministic packages: a
// goroutine whose body (or any function it transitively calls, resolved
// through the ipa summaries) contains a `for {}` loop with no return,
// break, channel receive, or select has no termination path — no done
// channel, no context, nothing. Such a goroutine outlives drain and
// turns graceful shutdown into a hang or a leak. Loops that receive or
// select are signal-driven and stay silent; bounded goroutine bodies
// are fine.
var GoLeak = &analysis.Analyzer{
	Name: "goleak",
	Doc: "forbid goroutines in deterministic packages whose body loops forever with no " +
		"termination path (no done channel, context, return, or break)",
	Run: runGoLeak,
}

func runGoLeak(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				if pos := ipa.UnboundedLoopPos(lit); pos != token.NoPos {
					pass.Reportf(pos,
						"goroutine loops forever with no termination path in deterministic package %s; add a done channel or context case",
						pass.Pkg.Path())
				} else {
					// The literal may reach the loop through a callee.
					for _, fn := range ipa.LocalCallees(pass.TypesInfo, lit.Body, pass.Facts.IsLocal) {
						if chain := pass.Facts.UnboundedChain(fn.FullName()); chain != nil {
							pass.Reportf(g.Go,
								"goroutine reaches an unstoppable loop: %s; add a done channel or context case",
								ipa.FormatChain(chain))
							break
						}
					}
				}
				return true
			}
			if fn := ipa.CalleeOf(pass.TypesInfo, g.Call); fn != nil {
				if chain := pass.Facts.UnboundedChain(fn.FullName()); chain != nil {
					pass.Reportf(g.Go,
						"goroutine runs %s, which loops forever with no termination path: %s; add a done channel or context case",
						ipa.ShortName(fn.FullName()), ipa.FormatChain(chain))
				}
			}
			return true
		})
	}
	return nil
}
