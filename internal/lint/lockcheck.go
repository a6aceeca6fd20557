package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockDisciplinePkgs are the packages where a leaked lock or a blocking
// call under one stalls the whole engine: the transport, whose session
// mutexes are hot, and the join-node table, which holds no mutex today and
// whose first one gets the same discipline.
var lockDisciplinePkgs = map[string]bool{"tcpnet": true, "hashtable": true}

// blockingUnderLock is the set of operations that may park the goroutine
// indefinitely; none of them is tolerable while a mutex of the packages
// above is held. Method entries use types.Func.FullName
// notation: "(net.Conn).Read", "(*bufio.Writer).Flush".
var blockingUnderLock = map[string]bool{
	"io.ReadFull":              true,
	"io.ReadAtLeast":           true,
	"io.Copy":                  true,
	"io.CopyN":                 true,
	"net.Dial":                 true,
	"net.DialTimeout":          true,
	"time.Sleep":               true,
	"(net.Conn).Read":          true,
	"(net.Conn).Write":         true,
	"(*net.TCPConn).Read":      true,
	"(*net.TCPConn).Write":     true,
	"(*bufio.Writer).Flush":    true,
	"(*bufio.Writer).Write":    true,
	"(*bufio.Reader).Read":     true,
	"(*bufio.Reader).ReadByte": true,
	"(*bufio.Reader).Peek":     true,
	"(*sync.WaitGroup).Wait":   true,
	"(net.Listener).Accept":    true,
}

// NewLockCheck returns the lock-discipline analyzer. For every
// sync.Mutex/RWMutex Lock() in the transport and hash-table packages it
// requires either a later `defer Unlock()` on the same receiver or an
// explicit unlock positioned before every return, and it flags blocking
// operations (socket reads/writes, dials, sleeps, channel operations)
// executed while the lock may still be held.
func NewLockCheck() *Analyzer {
	a := &Analyzer{
		Name: "lockcheck",
		Doc: "flags Lock() without a dominating defer Unlock()/unlock-before-every-return,\n" +
			"and blocking I/O or channel operations while a tcpnet or hashtable mutex is held",
	}
	a.Run = func(pass *Pass) error {
		if !lockDisciplinePkgs[pass.Pkg.Name()] {
			return nil
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						checkLockBody(pass, n.Body)
					}
				case *ast.FuncLit:
					checkLockBody(pass, n.Body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// lockOp is one mutex operation found in a function body.
type lockOp struct {
	pos  token.Pos
	recv string // receiver expression, textually ("s.mu")
	name string // Lock, RLock, Unlock, RUnlock
}

// mutexCall decomposes a call statement into a mutex operation, if it is
// one. deferOK selects whether the call sits inside a defer.
func mutexCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return lockOp{}, false
	}
	t := info.TypeOf(sel.X)
	if t == nil {
		return lockOp{}, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return lockOp{}, false
	}
	return lockOp{pos: call.Pos(), recv: types.ExprString(sel.X), name: sel.Sel.Name}, true
}

func unlockName(lock string) string {
	if lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// checkLockBody runs both lock rules over one function body, without
// descending into nested function literals (each gets its own check).
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	var locks, unlocks, deferred []lockOp
	var returns []token.Pos
	walkShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if op, ok := mutexCall(pass.Info, call); ok {
					if op.name == "Lock" || op.name == "RLock" {
						locks = append(locks, op)
					} else {
						unlocks = append(unlocks, op)
					}
				}
			}
		case *ast.DeferStmt:
			if op, ok := mutexCall(pass.Info, n.Call); ok &&
				(op.name == "Unlock" || op.name == "RUnlock") {
				deferred = append(deferred, op)
			}
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		}
	})

	for _, lk := range locks {
		want := unlockName(lk.name)
		held := heldWindow(body, lk, want, unlocks, deferred, returns, pass)
		if held.bad {
			continue
		}
		// Rule 2: nothing may block while the lock is held.
		checkBlockingInWindow(pass, body, lk, held.from, held.to)
	}
}

type window struct {
	from, to token.Pos
	bad      bool // rule 1 already failed; skip rule 2 noise
}

// heldWindow applies rule 1 for one lock operation and returns the
// positional window in which the lock is (conservatively) held.
func heldWindow(body *ast.BlockStmt, lk lockOp, want string,
	unlocks, deferred []lockOp, returns []token.Pos, pass *Pass) window {

	for _, d := range deferred {
		if d.recv == lk.recv && d.name == want && d.pos > lk.pos {
			return window{from: lk.pos, to: body.End()}
		}
	}
	var first token.Pos
	for _, u := range unlocks {
		if u.recv == lk.recv && u.name == want && u.pos > lk.pos {
			if first == token.NoPos || u.pos < first {
				first = u.pos
			}
		}
	}
	if first == token.NoPos {
		pass.Reportf(lk.pos, "%s.%s() has no matching defer %s.%s() or explicit unlock on any path",
			lk.recv, lk.name, lk.recv, want)
		return window{bad: true}
	}
	ok := true
	for _, r := range returns {
		if r <= lk.pos {
			continue
		}
		covered := false
		for _, u := range unlocks {
			if u.recv == lk.recv && u.name == want && u.pos > lk.pos && u.pos < r {
				covered = true
				break
			}
		}
		if !covered {
			pass.Reportf(r, "return while %s may still be held (locked at line %d with no %s on this path); "+
				"prefer defer %s.%s()",
				lk.recv, pass.Fset.Position(lk.pos).Line, want, lk.recv, want)
			ok = false
		}
	}
	return window{from: lk.pos, to: first, bad: !ok}
}

// checkBlockingInWindow flags blocking operations positioned inside the
// held window.
func checkBlockingInWindow(pass *Pass, body *ast.BlockStmt, lk lockOp, from, to token.Pos) {
	walkShallow(body, func(n ast.Node) {
		if n.Pos() <= from || n.Pos() >= to {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, n)
			if fn != nil && blockingUnderLock[fn.FullName()] {
				pass.Reportf(n.Pos(), "blocking call %s while holding %s (locked at line %d): "+
					"release the lock before any operation that can park",
					fn.FullName(), lk.recv, pass.Fset.Position(lk.pos).Line)
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while holding %s (locked at line %d)",
				lk.recv, pass.Fset.Position(lk.pos).Line)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while holding %s (locked at line %d)",
					lk.recv, pass.Fset.Position(lk.pos).Line)
			}
		}
	})
}

// walkShallow visits every node in body except nested function literals.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
