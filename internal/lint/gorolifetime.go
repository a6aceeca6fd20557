package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroScopePkgs names the packages whose goroutines must be provably
// lifecycle-bounded: the transport spawns per-connection readers, writers,
// dialers, and handshakes that must all die with their owner's Close (the
// PR 7 redial leak was exactly a spawn that outlived the coordinator), and
// the runtime/core layers must not grow unbounded spawns as they head
// toward joinsvc. The join-node table spawns nothing today (DESIGN.md §6);
// parallelism that re-enters it has to pass the same proof. The live
// engine's per-node goroutines are owned by its constructor and out of scope.
var goroScopePkgs = map[string]bool{"tcpnet": true, "runtime": true, "core": true, "hashtable": true}

// NewGoroLifetime returns the goroutine-lifecycle analyzer. Every `go`
// statement in the scope packages must spawn a body the analyzer can prove
// terminates when its owner shuts down. A body is bounded when any of:
//
//   - it calls (*sync.WaitGroup).Done — some owner is joining it;
//   - it contains no suspect loop: every `for` has a condition, and every
//     `range` over a channel ranges a channel that is closed somewhere in
//     the package or was passed in as a parameter (a finite body runs to
//     its end and exits);
//   - every suspect loop (a condition-less `for`, or a `range` over a
//     never-closed channel) has an internal exit: a `return` under an
//     error-nil check (the read-until-error connection loop), or a
//     `return` in a select arm receiving from a closable channel — one the
//     package closes, a parameter, or a Done()-style method value.
//
// The spawned body must be visible: a function literal, or a function or
// method declared in the same package. Spawning something the analyzer
// cannot see is itself a finding — wrap it, or annotate why its lifetime
// is bounded. Nested function literals inside a spawned body are analyzed
// only at their own `go` statements: a literal that is merely stored or
// passed is a callback, not this goroutine's loop.
func NewGoroLifetime() *Analyzer {
	a := &Analyzer{
		Name: "gorolifetime",
		Doc: "verifies every go statement in tcpnet, runtime, core, and hashtable spawns a body that\n" +
			"provably exits at shutdown: joined by a WaitGroup, bounded by closable-channel\n" +
			"receives, or looping only until an error or a done signal",
	}
	a.Run = func(pass *Pass) error {
		if !goroScopePkgs[pass.Pkg.Name()] {
			return nil
		}
		g := &goroChecker{
			pass:       pass,
			closedObjs: map[types.Object]bool{},
			decls:      map[*types.Func]*ast.FuncDecl{},
		}
		// Package-wide pre-pass: which channel objects does anything close,
		// and where does each function live.
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if fn, ok := pass.Info.Defs[n.Name].(*types.Func); ok && n.Body != nil {
						g.decls[fn] = n
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 {
						if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
							if obj := g.chanRoot(n.Args[0]); obj != nil {
								g.closedObjs[obj] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					g.checkSpawn(gs)
				}
				return true
			})
		}
		return nil
	}
	return a
}

type goroChecker struct {
	pass       *Pass
	closedObjs map[types.Object]bool
	decls      map[*types.Func]*ast.FuncDecl
}

// chanRoot resolves the object that owns a channel expression: the
// variable, the struct field, or — for the ctx.Done() idiom — the receiver
// of a Done() method value.
func (g *goroChecker) chanRoot(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return g.chanRoot(e.X)
	case *ast.Ident:
		if obj := g.pass.Info.Uses[e]; obj != nil {
			return obj
		}
		return g.pass.Info.Defs[e]
	case *ast.SelectorExpr:
		if s, ok := g.pass.Info.Selections[e]; ok {
			return s.Obj()
		}
		return g.pass.Info.Uses[e.Sel]
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return g.chanRoot(sel.X)
		}
	}
	return nil
}

// closable reports whether receiving from e can be unblocked by a shutdown
// path: its root object is closed somewhere in the package, or is one of
// the spawned body's own parameters (the spawner owns it).
func (g *goroChecker) closable(e ast.Expr, params map[types.Object]bool) bool {
	obj := g.chanRoot(e)
	return obj != nil && (g.closedObjs[obj] || params[obj])
}

// checkSpawn resolves the spawned body and reports when it cannot be
// proven lifecycle-bounded.
func (g *goroChecker) checkSpawn(gs *ast.GoStmt) {
	var body *ast.BlockStmt
	var params map[types.Object]bool
	var what string
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
		params = g.paramObjs(fun.Type)
		what = "function literal"
	default:
		fn := calleeFunc(g.pass.Info, gs.Call)
		if fn == nil || g.decls[fn] == nil {
			g.pass.Reportf(gs.Pos(), "go statement spawns %s, whose body this package cannot see: "+
				"spawn a local function whose shutdown path is checkable, or annotate why its "+
				"lifetime is bounded", types.ExprString(gs.Call.Fun))
			return
		}
		decl := g.decls[fn]
		body = decl.Body
		params = g.paramObjs(decl.Type)
		what = fn.Name()
	}
	if bad := g.unboundedLoop(body, params); bad != token.NoPos {
		g.pass.Reportf(gs.Pos(), "goroutine (%s) is not provably lifecycle-bounded: the loop at "+
			"%s can outlive every shutdown path — add a done-channel select arm, a WaitGroup, "+
			"or an error-exit, so Close cannot leak it", what, g.pass.Fset.Position(bad))
	}
}

// paramObjs collects the declared parameter objects of a function type.
func (g *goroChecker) paramObjs(ft *ast.FuncType) map[types.Object]bool {
	out := map[types.Object]bool{}
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := g.pass.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// unboundedLoop scans a spawned body for a suspect loop with no internal
// exit, returning its position (or NoPos when the body is bounded).
func (g *goroChecker) unboundedLoop(body *ast.BlockStmt, params map[types.Object]bool) token.Pos {
	if g.callsWaitGroupDone(body) {
		return token.NoPos
	}
	bad := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if bad != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a callback's loops are not this goroutine's loops
		case *ast.ForStmt:
			if n.Cond == nil && !g.loopHasExit(n.Body, params) {
				bad = n.Pos()
				return false
			}
		case *ast.RangeStmt:
			t := g.pass.Info.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return true
			}
			if !g.closable(n.X, params) && !g.loopHasExit(n.Body, params) {
				bad = n.Pos()
				return false
			}
		}
		return true
	})
	return bad
}

// callsWaitGroupDone reports whether the body calls (*sync.WaitGroup).Done
// anywhere — some owner is joining this goroutine.
func (g *goroChecker) callsWaitGroupDone(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(g.pass.Info, call); fn != nil &&
				fn.FullName() == "(*sync.WaitGroup).Done" {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopHasExit reports whether a suspect loop's body contains a recognized
// internal exit: a return under an error-nil check, or a return in a
// select arm receiving from a closable channel.
func (g *goroChecker) loopHasExit(body *ast.BlockStmt, params map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if g.isErrCheck(n.Cond) && containsReturn(n.Body) {
				found = true
				return false
			}
		case *ast.SelectStmt:
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				recv := commReceiveChan(cc.Comm)
				if recv == nil || !g.closable(recv, params) {
					continue
				}
				if containsReturnStmts(cc.Body) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isErrCheck reports whether cond contains a ==/!= comparison between an
// error-typed operand and nil.
func (g *goroChecker) isErrCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return true
		}
		for x, y := b.X, b.Y; ; x, y = y, x {
			if isNilIdent(g.pass.Info, y) {
				if t := g.pass.Info.TypeOf(x); t != nil && types.Identical(t, errorType) {
					found = true
				}
			}
			if x == b.Y {
				break
			}
		}
		return !found
	})
	return found
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// commReceiveChan extracts the channel expression of a select arm's
// receive, from both `<-ch` and `v := <-ch` shapes. Nil for sends and
// defaults.
func commReceiveChan(comm ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// containsReturn reports whether the block contains a return statement
// (outside nested function literals).
func containsReturn(b *ast.BlockStmt) bool {
	return containsReturnStmts(b.List)
}

func containsReturnStmts(list []ast.Stmt) bool {
	found := false
	for _, s := range list {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
