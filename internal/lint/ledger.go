package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// ledgerTable names the conservation counters: struct fields that accrue
// during normal operation and must be reversed when the state they account
// for is purged, reassigned, or restored. The table is curated — adding a
// counter to it is part of adding the counter — and the analyzer reports a
// stale entry (field gone, or never mutated) so the table cannot rot.
//
//   - core.joinActor: the Stored-conservation inputs. cloneReceived and
//     heavyCopies/heavyCopyCount exclude replicated tuples from Stored; a
//     purge that drops the replicas must also drop the exclusions, or
//     Stored goes negative on the purged range.
//   - tcpnet.workerReport / tcpnet.p2pState: the per-pair quiescence
//     counters, as a worker reports them and as it counts them. A
//     reassigned worker restarts its streams from zero; stale per-pair
//     counts would deadlock (or falsely pass) the Drain barrier.
//   - spill.Manager: per-partition resident byte accounting, reversed when
//     a partition range is extracted or purged.
var ledgerTable = []struct {
	pkg, typ string
	fields   []string
}{
	{"core", "joinActor", []string{"cloneReceived", "heavyCopies", "heavyCopyCount"}},
	{"tcpnet", "workerReport", []string{"PeerEmitted", "PeerProcessed"}},
	{"tcpnet", "p2pState", []string{"peerEmitted", "peerProcessed"}},
	{"spill", "Manager", []string{"rBytes", "sBytes"}},
}

// ledgerRootRe matches the functions that begin a reversal path: the
// purge/purgeRange handlers and the reassignment/restore paths that reset
// a peer's ledger. A reversal only counts when it runs in (or is reachable
// from, through same-package calls) one of these.
var ledgerRootRe = regexp.MustCompile(`(?i)(purge|restore|resume|redial|reset|epoch)`)

// NewLedger returns the conservation-ledger analyzer: a program-level pass
// (like reportsync) verifying every counter in ledgerTable is both accrued
// somewhere and reversed on a reachable purge path. Accruals are +=, ++,
// append-assignments, and assignments of a whole struct, which accrue every
// counter the struct's type carries (a report copied in whole); reversals
// are -=, --, delete(), and assignments of nil, zero, or a fresh make.
// Reachability is a same-package call-graph walk from the root functions,
// over-approximated by function name — which errs toward accepting a
// reversal, never toward a false positive.
func NewLedger() *Analyzer {
	a := &Analyzer{
		Name: "ledger",
		Doc: "verifies every conservation counter (Stored exclusions, per-pair quiescence\n" +
			"counts, spill byte accounting) pairs its accruals with a reversal reachable\n" +
			"from the purge/restore paths, so purged state cannot leave counters behind",
	}

	type counterState struct {
		pkg, typ, field   string
		declared          bool
		pos               token.Position // field declaration
		accrued           bool
		reversed          bool // a reversal exists somewhere
		reversedReachable bool // ... in a function reachable from a root
	}
	counters := map[string]*counterState{}
	byType := map[string][]*counterState{} // "pkg.typ" -> its counters
	var order []string
	typeSeen := map[string]token.Position{} // "pkg.typ" -> type position
	for _, e := range ledgerTable {
		for _, f := range e.fields {
			key := e.pkg + "." + e.typ + "." + f
			counters[key] = &counterState{pkg: e.pkg, typ: e.typ, field: f}
			byType[e.pkg+"."+e.typ] = append(byType[e.pkg+"."+e.typ], counters[key])
			order = append(order, key)
		}
	}
	// countersIn lists the counters a value of e's type carries.
	countersIn := func(pass *Pass, e ast.Expr) []*counterState {
		named, ok := pass.Info.TypeOf(e).(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return nil
		}
		return byType[named.Obj().Pkg().Name()+"."+named.Obj().Name()]
	}

	// counterOf resolves a mutated expression (selector, possibly indexed)
	// to its table entry.
	counterOf := func(pass *Pass, e ast.Expr) *counterState {
		for {
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ix.X
				continue
			}
			break
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return nil
		}
		recv := s.Recv()
		if p, ok := recv.Underlying().(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return nil
		}
		return counters[named.Obj().Pkg().Name()+"."+named.Obj().Name()+"."+s.Obj().Name()]
	}

	isZeroing := func(pass *Pass, rhs ast.Expr) bool {
		if isNilIdent(pass.Info, rhs) {
			return true
		}
		if lit, ok := rhs.(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == "0" {
			return true
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
					return true
				}
			}
		}
		return false
	}
	isAppend := func(pass *Pass, rhs ast.Expr) bool {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := pass.Info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "append"
	}

	a.Run = func(pass *Pass) error {
		pkgName := pass.Pkg.Name()
		inTable := false
		for _, e := range ledgerTable {
			if e.pkg == pkgName {
				inTable = true
			}
		}
		if !inTable {
			return nil
		}
		// Register the declared fields of any table type this package defines.
		for _, e := range ledgerTable {
			if e.pkg != pkgName {
				continue
			}
			tn, ok := pass.Pkg.Scope().Lookup(e.typ).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			typeSeen[e.pkg+"."+e.typ] = pass.Fset.Position(tn.Pos())
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if cs := counters[e.pkg+"."+e.typ+"."+f.Name()]; cs != nil {
					cs.declared = true
					cs.pos = pass.Fset.Position(f.Pos())
				}
			}
		}

		// One walk per top-level function: classify mutations and record
		// same-package call edges for the reachability pass below.
		edges := map[string][]string{}
		type reversalSite struct {
			cs *counterState
			fn string
		}
		var reversals []reversalSite
		var roots []string
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fname := fd.Name.Name
				if ledgerRootRe.MatchString(fname) {
					roots = append(roots, fname)
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
							if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
								if cs := counterOf(pass, n.Args[0]); cs != nil {
									cs.reversed = true
									reversals = append(reversals, reversalSite{cs, fname})
								}
								return true
							}
						}
						if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() == pass.Pkg {
							edges[fname] = append(edges[fname], fn.Name())
						}
					case *ast.IncDecStmt:
						if cs := counterOf(pass, n.X); cs != nil {
							if n.Tok == token.INC {
								cs.accrued = true
							} else {
								cs.reversed = true
								reversals = append(reversals, reversalSite{cs, fname})
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							if n.Tok == token.ASSIGN {
								for _, cs := range countersIn(pass, lhs) {
									cs.accrued = true
								}
							}
							cs := counterOf(pass, lhs)
							if cs == nil || i >= len(n.Rhs) && len(n.Rhs) != 1 {
								continue
							}
							rhs := n.Rhs[0]
							if i < len(n.Rhs) {
								rhs = n.Rhs[i]
							}
							switch {
							case n.Tok == token.ADD_ASSIGN:
								cs.accrued = true
							case n.Tok == token.SUB_ASSIGN:
								cs.reversed = true
								reversals = append(reversals, reversalSite{cs, fname})
							case n.Tok == token.ASSIGN && isZeroing(pass, rhs):
								cs.reversed = true
								reversals = append(reversals, reversalSite{cs, fname})
							case n.Tok == token.ASSIGN && isAppend(pass, rhs):
								cs.accrued = true
							}
						}
					}
					return true
				})
			}
		}

		// Same-package reachability from the purge/restore roots.
		reachable := map[string]bool{}
		queue := roots
		for _, r := range roots {
			reachable[r] = true
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			for _, callee := range edges[fn] {
				if !reachable[callee] {
					reachable[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		for _, rs := range reversals {
			if reachable[rs.fn] {
				rs.cs.reversedReachable = true
			}
		}
		return nil
	}

	a.Finish = func(report func(Diagnostic)) error {
		for _, key := range order {
			cs := counters[key]
			tpos, seen := typeSeen[cs.pkg+"."+cs.typ]
			if !seen {
				continue // defining package not among the analyzed ones
			}
			name := cs.pkg + "." + cs.typ + "." + cs.field
			switch {
			case !cs.declared:
				report(Diagnostic{Check: "ledger", Pos: tpos,
					Message: "ledger table lists " + name + " but the struct has no such field: " +
						"update ledgerTable in internal/lint/ledger.go alongside the counter"})
			case !cs.accrued && !cs.reversed:
				report(Diagnostic{Check: "ledger", Pos: cs.pos,
					Message: "ledger counter " + name + " is never mutated: the table entry is stale — " +
						"remove it from ledgerTable or wire the counter up"})
			case cs.accrued && !cs.reversed:
				report(Diagnostic{Check: "ledger", Pos: cs.pos,
					Message: "conservation counter " + name + " is accrued but never reversed: " +
						"purged state keeps its contribution forever, so the conservation check " +
						"(DESIGN.md §8) drifts — add a reversal on the purge/restore path"})
			case cs.accrued && !cs.reversedReachable:
				report(Diagnostic{Check: "ledger", Pos: cs.pos,
					Message: "conservation counter " + name + " has a reversal, but none reachable " +
						"from a purge/restore root (purge, restore, resume, redial, reset, epoch): " +
						"the reversal can never run when state is actually dropped"})
			}
		}
		return nil
	}
	return a
}
