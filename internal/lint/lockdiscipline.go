package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"cendev/internal/lint/analysis"
	"cendev/internal/lint/ipa"
)

// lockPkgs are the packages held to mutex discipline: the deterministic
// set plus topology, whose Graph guards the derived routing state every
// worker shares.
var lockPkgs = append(append([]string{}, deterministicPkgs...), "cendev/internal/topology")

// LockDiscipline enforces three mutex contracts in the shared-state
// packages:
//
//  1. no copy-by-value of lock-bearing types (a copied mutex guards
//     nothing — the copy and the original lock independently);
//  2. every Lock is paired: a function that locks a mutex must unlock it
//     on every path (deferred, or before each return);
//  3. nothing slow or parking happens under a held lock: no deep
//     Clone(), no channel operation, no blocking callee (resolved
//     through the ipa summaries) between Lock and Unlock.
//
// The paths are compared textually (g.mu vs n.mu), per function, with
// function literals excluded — a closure's lock lifetime is its own.
var LockDiscipline = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "forbid copying lock-bearing values, Lock without Unlock on every path, and " +
		"Clone()/channel ops/blocking calls while a mutex is held in shared-state packages",
	Run: runLockDiscipline,
}

func runLockDiscipline(pass *analysis.Pass) error {
	if !pathIn(pass.Pkg.Path(), lockPkgs) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockCopies(pass, fd)
			checkLockRegions(pass, fd)
		}
	}
	return nil
}

// checkLockCopies flags lock-bearing values received or copied by value.
func checkLockCopies(pass *analysis.Pass, fd *ast.FuncDecl) {
	flagFields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				continue
			}
			if lockBearing(tv.Type, 0) {
				pass.Reportf(field.Type.Pos(),
					"%s copies lock-bearing type %s by value; the copy's mutex guards nothing — use a pointer",
					what, tv.Type)
			}
		}
	}
	flagFields(fd.Recv, "receiver")
	flagFields(fd.Type.Params, "parameter")

	// x := *p where *p carries a mutex: the dereference copies the lock.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, rhs := range as.Rhs {
			star, ok := rhs.(*ast.StarExpr)
			if !ok {
				continue
			}
			if tv, ok := pass.TypesInfo.Types[star]; ok && lockBearing(tv.Type, 0) {
				pass.Reportf(star.Pos(),
					"dereference copies lock-bearing type %s by value; the copy's mutex guards nothing", tv.Type)
			}
		}
		return true
	})
}

// lockBearing reports whether t contains a sync lock by value.
func lockBearing(t types.Type, depth int) bool {
	if depth > 10 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond":
				return true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lockBearing(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return lockBearing(u.Elem(), depth+1)
	}
	return false
}

// lockEvent is one Lock/Unlock call on a textual receiver path.
type lockEvent struct {
	pos      token.Pos
	path     string // types.ExprString of the receiver, e.g. "g.mu"
	lock     bool   // Lock/RLock vs Unlock/RUnlock
	deferred bool
}

// checkLockRegions walks one function's lock/unlock sequence and flags
// unpaired locks, returns inside a held region, and slow or parking
// operations under a held lock.
func checkLockRegions(pass *analysis.Pass, fd *ast.FuncDecl) {
	var events []lockEvent
	collect := func(n ast.Node, deferred bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn := methodOf(pass.TypesInfo, sel.Sel)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return
		}
		switch fn.Name() {
		case "Lock", "RLock":
			events = append(events, lockEvent{pos: call.Pos(), path: types.ExprString(sel.X), lock: true, deferred: deferred})
		case "Unlock", "RUnlock":
			events = append(events, lockEvent{pos: call.Pos(), path: types.ExprString(sel.X), lock: false, deferred: deferred})
		}
	}
	deferCalls := map[*ast.CallExpr]bool{}
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return
		}
		// Both defer mu.Unlock() and defer func() { …mu.Unlock()… }().
		deferCalls[def.Call] = true
		collect(def.Call, true)
		if lit, ok := def.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				collect(m, true)
				return true
			})
		}
	})
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && deferCalls[call] {
			return
		}
		collect(n, false)
	})

	// Per locked path: pair each Lock with its outcome.
	paths := map[string]bool{}
	for _, e := range events {
		if e.lock && !e.deferred {
			paths[e.path] = true
		}
	}
	for path := range paths {
		var locks, unlocks []lockEvent
		hasDeferredUnlock := false
		for _, e := range events {
			switch {
			case e.lock && !e.deferred && e.path == path:
				locks = append(locks, e)
			case !e.lock && e.path == path:
				if e.deferred {
					hasDeferredUnlock = true
				} else {
					unlocks = append(unlocks, e)
				}
			}
		}
		for _, l := range locks {
			// The held region runs from the Lock to the first later plain
			// Unlock, or to the end of the function under a deferred one.
			end := fd.End()
			var plainEnd bool
			for _, u := range unlocks {
				if u.pos > l.pos {
					end = u.pos
					plainEnd = true
					break
				}
			}
			if !plainEnd && !hasDeferredUnlock {
				pass.Reportf(l.pos,
					"%s is locked but never unlocked in %s; add defer %s.Unlock() or unlock on every path",
					path, fd.Name.Name, path)
				continue
			}
			if plainEnd {
				checkReturnsInRegion(pass, fd, path, l.pos, end)
			}
			checkHeldRegion(pass, fd, path, l.pos, end)
		}
	}
}

// checkReturnsInRegion flags returns between a plain Lock and its
// Unlock: the lock leaks on that path. Position order stands in for
// control flow — an early-return branch that unlocks first places its
// Unlock before the return and stays silent.
func checkReturnsInRegion(pass *analysis.Pass, fd *ast.FuncDecl, path string, lo, hi token.Pos) {
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= lo || ret.Pos() >= hi {
			return
		}
		pass.Reportf(ret.Pos(),
			"return while %s is still locked (locked at line %d); unlock before returning or use defer",
			path, pass.Fset.Position(lo).Line)
	})
}

// checkHeldRegion flags slow or parking operations inside a held-lock
// region: local Clone() calls, channel operations, selects without
// default, and calls whose ipa summary says they block.
func checkHeldRegion(pass *analysis.Pass, fd *ast.FuncDecl, path string, lo, hi token.Pos) {
	in := func(p token.Pos) bool { return p > lo && p < hi }
	// A channel op that IS a select's comm clause is part of the select —
	// the select finding covers it; don't double-report.
	var commRanges [][2]token.Pos
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					commRanges = append(commRanges, [2]token.Pos{cc.Comm.Pos(), cc.Comm.End()})
				}
			}
		}
	})
	inComm := func(p token.Pos) bool {
		for _, r := range commRanges {
			if p >= r[0] && p < r[1] {
				return true
			}
		}
		return false
	}
	walkSkipFuncLits(fd.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if in(n.Pos()) && !inComm(n.Pos()) {
				pass.Reportf(n.Pos(), "channel send while holding %s; a full channel parks every other user of the lock", path)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && in(n.Pos()) && !inComm(n.Pos()) {
				pass.Reportf(n.Pos(), "channel receive while holding %s; a quiet channel parks every other user of the lock", path)
			}
		case *ast.SelectStmt:
			if in(n.Pos()) && !hasDefaultClause(n) {
				pass.Reportf(n.Pos(), "select with no default while holding %s; the select can park with the lock held", path)
			}
		case *ast.CallExpr:
			if !in(n.Pos()) {
				return
			}
			fn := ipa.CalleeOf(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			if fn.Name() == "Clone" && pass.Facts.IsLocal(fn.Pkg().Path()) {
				pass.Reportf(n.Pos(),
					"%s.Clone() while holding %s; deep copies under a mutex serialize every reader — capture, unlock, then clone",
					ipa.ShortName(fn.FullName()), path)
				return
			}
			if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				pass.Reportf(n.Pos(), "time.Sleep while holding %s", path)
				return
			}
			if chain, op, ok := pass.Facts.BlockChain(fn.FullName()); ok {
				pass.Reportf(n.Pos(),
					"call while holding %s can park on %s: %s; move the blocking work outside the critical section",
					path, op, ipa.FormatChain(chain))
			}
		}
	})
}

func hasDefaultClause(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// walkSkipFuncLits visits every node under n except nested function
// literal bodies — a closure's locks and returns have their own
// lifetime.
func walkSkipFuncLits(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			visit(m)
		}
		return true
	})
}
