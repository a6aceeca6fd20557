package lint

import (
	"go/ast"
	"go/token"
)

// NewWalOrder returns the WAL log-before-act analyzer. Crash recovery
// (DESIGN.md §12) replays the checkpoint log to rebuild the coordinator's
// control plane, which is only sound if every logged state transition hits
// the log *before* its effect becomes observable — on the wire, in the ack
// gate, or in the worker lifecycle. The analyzer enforces that discipline
// syntactically, per function, in the coordinator's package: each "act"
// marker must be preceded in its function body by a logRecord call carrying
// the matching checkpoint kind.
//
// The act markers and their required record kinds:
//
//   - sess.logged(seq) — releasing a gated ack — requires any prior
//     logRecord: the ack may only leave once the frame's event is durable.
//   - a Receive call (applying a delivery to a local actor) requires a
//     prior logRecord(Kind: CkptDelivery).
//   - w.state = linkDead (tombstoning a worker's link) requires CkptDeath.
//   - sess.reset() or bumpPeerEpoch(...) (invalidating a session epoch and
//     broadcasting it) requires CkptEpoch.
//   - drains++ (advancing the phase barrier) requires CkptPhase.
//
// Scope: non-test functions in the package named "tcpnet" whose receiver
// or a parameter is the Coordinator type. Snapshot builders are exempt —
// a function whose receiver or parameter is Snapshot re-applies
// already-logged records by construction. A logRecord
// whose record kind cannot be read syntactically (a variable, a helper
// other than headerRecord) is treated as matching every kind: the check
// errs toward silence on shapes it cannot prove.
//
// The ordering is checked linearly over the function body (source order),
// which over-approximates domination: a logRecord in one branch satisfies
// an act in a sibling branch. That is deliberate — the production shape
// guards the log call with `if c.ckpt != nil` while the act runs
// unconditionally, and flagging that would make every site a suppression.
func NewWalOrder() *Analyzer {
	a := &Analyzer{
		Name: "walorder",
		Doc: "verifies each logged state transition in the checkpointing coordinator\n" +
			"(ack release, delivery apply, death, epoch bump, phase barrier) is preceded\n" +
			"in its function by a logRecord call carrying the matching checkpoint kind",
	}
	a.Run = func(pass *Pass) error {
		if pass.Pkg.Name() != "tcpnet" {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if !funcMentionsType(fd, "Coordinator") || funcIsReplay(fd) {
					continue
				}
				checkWalOrder(pass, fd)
			}
		}
		return nil
	}
	return a
}

// astTypeName extracts the bare type name from a receiver or parameter
// type expression: `*Coordinator`, `Coordinator`, `pkg.Coordinator`.
func astTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return astTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// funcMentionsType reports whether fd's receiver or any parameter has the
// named type (through one level of pointer).
func funcMentionsType(fd *ast.FuncDecl, name string) bool {
	var lists []*ast.FieldList
	if fd.Recv != nil {
		lists = append(lists, fd.Recv)
	}
	if fd.Type.Params != nil {
		lists = append(lists, fd.Type.Params)
	}
	for _, fl := range lists {
		for _, field := range fl.List {
			if astTypeName(field.Type) == name {
				return true
			}
		}
	}
	return false
}

// funcIsReplay reports whether fd builds a coordinator from a Snapshot,
// re-applying records that are already in the log. Replay runs the live
// transitions with the log set aside, so those stay in scope.
func funcIsReplay(fd *ast.FuncDecl) bool {
	return funcMentionsType(fd, "Snapshot")
}

// walScan is the per-function linear state: which record kinds have been
// logged so far in source order.
type walScan struct {
	pass     *Pass
	fn       string
	anyLog   bool
	wildcard bool // a logRecord whose kind we could not read syntactically
	kinds    map[string]bool
}

func (ws *walScan) logged(kind string) {
	ws.anyLog = true
	if kind == "" {
		ws.wildcard = true
		return
	}
	ws.kinds[kind] = true
}

func (ws *walScan) require(pos token.Pos, kind, act string) {
	if ws.wildcard || ws.kinds[kind] {
		return
	}
	ws.pass.Reportf(pos, "%s in %s before any logRecord(Kind: %s): the record must land "+
		"before the act it describes, or a crash between the two loses it on replay (log-before-act)",
		act, ws.fn, kind)
}

// checkWalOrder walks one in-scope function body in source order, feeding
// logRecord calls and act markers through the scan state.
func checkWalOrder(pass *Pass, fd *ast.FuncDecl) {
	ws := &walScan{pass: pass, fn: fd.Name.Name, kinds: map[string]bool{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			name := calleeName(n)
			switch name {
			case "logRecord":
				ws.logged(recordKind(n))
			case "logged":
				if !ws.anyLog {
					ws.pass.Reportf(n.Pos(), "gated ack released (logged) in %s before any logRecord "+
						"call: write-ahead ack gating requires the frame's event to be durable before "+
						"its ack can leave (log-before-act)", ws.fn)
				}
			case "Receive":
				ws.require(n.Pos(), "CkptDelivery", "delivery applied (Receive)")
			case "reset":
				ws.require(n.Pos(), "CkptEpoch", "session reset")
			case "bumpPeerEpoch":
				ws.require(n.Pos(), "CkptEpoch", "peer epoch bumped")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "state" || i >= len(n.Rhs) {
					continue
				}
				if id, ok := n.Rhs[i].(*ast.Ident); ok && id.Name == "linkDead" {
					ws.require(n.Pos(), "CkptDeath", "worker tombstoned (state = linkDead)")
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "drains" &&
				n.Tok == token.INC {
				ws.require(n.Pos(), "CkptPhase", "phase barrier advanced (drains++)")
			}
		}
		return true
	})
}

// calleeName extracts the syntactic callee name of a call: the method name
// for x.m(...), the function name for f(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// recordKind reads the checkpoint kind a logRecord call carries, by name:
// logRecord(&wire.CkptRecord{Kind: wire.CkptX, ...}) yields "CkptX", and
// logRecord(c.headerRecord()) yields "CkptHeader". Anything else — a
// variable, an unknown builder — yields "" (wildcard).
func recordKind(call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	arg := call.Args[0]
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = u.X
	}
	switch arg := arg.(type) {
	case *ast.CompositeLit:
		for _, el := range arg.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Kind" {
				continue
			}
			switch v := kv.Value.(type) {
			case *ast.Ident:
				return v.Name
			case *ast.SelectorExpr:
				return v.Sel.Name
			}
			return ""
		}
	case *ast.CallExpr:
		if calleeName(arg) == "headerRecord" {
			return "CkptHeader"
		}
	}
	return ""
}
