package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"cendev/internal/lint/analysis"
)

// MapRange flags map iteration whose body builds ordered output —
// appending to an outer slice that is never sorted afterwards, writing
// into a stream/encoder, concatenating onto an outer string, or
// accumulating onto an outer floating-point variable. Go randomizes map
// iteration order on purpose, so any of these leaks nondeterminism
// straight into canonical snapshots and JSON artifacts; float addition
// and multiplication are not associative, so even a sum's last bits
// follow the iteration order. Order-insensitive bodies (counting, integer
// sums, filling another map) are untouched, and the ubiquitous
// collect-keys-then-sort idiom is recognized: an append target that a
// later sort.*/slices.* call touches is not reported.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc: "flag range-over-map bodies that append to unsorted slices, write to " +
		"encoders/writers, build strings, or accumulate floats — map order is " +
		"randomized; sort first",
	Run: runMapRange,
}

// writerMethods are method names that commit bytes to an output in call
// order.
var writerMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// fmtWriters are the fmt package-level functions that emit directly.
var fmtWriters = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

func runMapRange(pass *analysis.Pass) error {
	if !isDeterministic(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, enclosingFuncBody(stack))
			return true
		})
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function on the
// walk stack, or nil at package level.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt, scope *ast.BlockStmt) {
	info := pass.TypesInfo
	appended := map[types.Object]token.Pos{} // outer slice -> first append position
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if fn := pkgFunc(info, sel.Sel); fn != nil {
					if fn.Pkg().Path() == "fmt" && fmtWriters[fn.Name()] {
						pass.Reportf(n.Pos(),
							"map iteration calls fmt.%s inside the loop — output order follows randomized map order; iterate sorted keys instead",
							fn.Name())
					}
					return true
				}
				if writerMethods[sel.Sel.Name] {
					pass.Reportf(n.Pos(),
						"map iteration calls %s inside the loop — bytes are committed in randomized map order; iterate sorted keys instead",
						sel.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			checkRangeAssign(pass, rs, n, appended)
		}
		return true
	})
	for obj, pos := range appended {
		if scope != nil && sortedAfter(info, scope, rs.End(), obj) {
			continue
		}
		pass.Reportf(pos,
			"map iteration appends to %s, which is never sorted afterwards — slice order follows randomized map order; sort %s (or the map's keys) before it reaches output",
			obj.Name(), obj.Name())
	}
}

// checkRangeAssign handles the order-sensitive assignment shapes inside
// a map-range body: appends to slices declared outside the loop, +=
// concatenation onto outer strings, and arithmetic accumulation
// (+=, -=, *=, /=) onto outer floats.
func checkRangeAssign(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, appended map[types.Object]token.Pos) {
	info := pass.TypesInfo
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) != 1 {
			return
		}
		obj := outerObject(info, as.Lhs[0], rs)
		if obj == nil {
			return
		}
		b, ok := obj.Type().Underlying().(*types.Basic)
		if !ok {
			return
		}
		switch {
		case as.Tok == token.ADD_ASSIGN && b.Info()&types.IsString != 0:
			pass.Reportf(as.Pos(),
				"map iteration concatenates onto %s — string content follows randomized map order; iterate sorted keys instead",
				obj.Name())
		case b.Info()&(types.IsFloat|types.IsComplex) != 0:
			pass.Reportf(as.Pos(),
				"map iteration accumulates onto %s with %s — floating-point arithmetic is not associative, so the result's last bits follow randomized map order; iterate sorted keys instead",
				obj.Name(), as.Tok)
		}
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		if obj := outerObject(info, as.Lhs[i], rs); obj != nil {
			if _, ok := appended[obj]; !ok {
				appended[obj] = call.Pos()
			}
		}
	}
}

// outerObject resolves expr to a variable declared outside the range
// statement, or nil (locals that die with the loop iteration can't leak
// order).
func outerObject(info *types.Info, expr ast.Expr, rs *ast.RangeStmt) types.Object {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
		return nil
	}
	return obj
}

// sortedAfter reports whether, somewhere in scope after pos, a
// sort.*/slices.* call mentions obj — the collect-then-sort idiom that
// restores a canonical order.
func sortedAfter(info *types.Info, scope *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := pkgFunc(info, sel.Sel)
		if fn == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(info, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether expr references obj anywhere inside it.
func mentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	hit := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			hit = true
			return false
		}
		return !hit
	})
	return hit
}
