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

// NewLockCheck returns the lock-discipline analyzer. In the transport and
// hash-table packages it flags blocking operations (socket reads/writes,
// dials, sleeps, channel operations) executed while a sync.Mutex/RWMutex
// may still be held: from its Lock() to the first explicit unlock after
// it, or to the end of the function when the unlock is deferred (or
// missing). A leaked lock itself is left to the tests: it deadlocks the
// next locker, and the session layer's suites hang on it.
func NewLockCheck() *Analyzer {
	a := &Analyzer{
		Name: "lockcheck",
		Doc:  "flags blocking I/O or channel operations while a tcpnet or hashtable mutex is held",
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
// one.
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

// checkLockBody checks each lock's held window in one function body,
// without descending into nested function literals (each gets its own
// check).
func checkLockBody(pass *Pass, body *ast.BlockStmt) {
	var locks, unlocks []lockOp
	walkShallow(body, func(n ast.Node) {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if call, ok := stmt.X.(*ast.CallExpr); ok {
			if op, ok := mutexCall(pass.Info, call); ok {
				if op.name == "Lock" || op.name == "RLock" {
					locks = append(locks, op)
				} else {
					unlocks = append(unlocks, op)
				}
			}
		}
	})
	for _, lk := range locks {
		checkBlockingInWindow(pass, body, lk, heldUntil(body, lk, unlocks))
	}
}

// heldUntil returns where lk's held window ends: at the first explicit
// unlock of the same mutex after it, else at the end of the body.
func heldUntil(body *ast.BlockStmt, lk lockOp, unlocks []lockOp) token.Pos {
	end := body.End()
	for _, u := range unlocks {
		if u.recv == lk.recv && u.name == unlockName(lk.name) && u.pos > lk.pos && u.pos < end {
			end = u.pos
		}
	}
	return end
}

// checkBlockingInWindow flags blocking operations positioned between lk
// and to, its held window's end.
func checkBlockingInWindow(pass *Pass, body *ast.BlockStmt, lk lockOp, to token.Pos) {
	walkShallow(body, func(n ast.Node) {
		if n.Pos() <= lk.pos || n.Pos() >= to {
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
