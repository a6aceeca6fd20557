package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// NewWireExhaustive returns the wire-format analyzer. It enforces the
// ErrUnknownKind class at compile time instead of at the first corrupt
// frame in production:
//
//   - In the codec files — every file of a package named "wire", plus any
//     file named wire.go in the transport package — a switch over a frame
//     kind type (a defined integer type whose name contains "Kind") must
//     have a case arm for every declared constant of that type: encode and
//     decode switches may never silently miss a registered kind.
//   - Such a switch must also carry a default arm, and the default must
//     reference ErrUnknownKind: corrupt input fails with the typed
//     sentinel, never with a silent fallthrough.
//   - Any "unknown ..." error built with fmt.Errorf or errors.New in the
//     wire/tcpnet packages must wrap ErrUnknownKind (%w), so transports
//     can errors.Is corruption apart from clean shutdown.
//
// Dispatch switches elsewhere (a worker handling only the kinds addressed
// to it) are intentionally out of scope: they handle subsets by design.
func NewWireExhaustive() *Analyzer {
	a := &Analyzer{
		Name: "wireexhaustive",
		Doc: "verifies every frame-kind constant has encode and decode arms in the codec\n" +
			"switches, and that unknown-kind paths wrap the typed wire.ErrUnknownKind",
	}
	a.Run = func(pass *Pass) error {
		name := pass.Pkg.Name()
		if name != "wire" && name != "tcpnet" {
			return nil
		}
		kindConsts := kindConstants(pass)
		for _, f := range pass.Files {
			codecFile := name == "wire" ||
				filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "wire.go"
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					// The sentinel's own errors.New definition is the one
					// legitimate non-wrapping "unknown kind" constructor.
					for _, name := range n.Names {
						if name.Name == "ErrUnknownKind" {
							return false
						}
					}
				case *ast.SwitchStmt:
					if codecFile {
						checkKindSwitch(pass, n, kindConsts)
					}
				case *ast.CallExpr:
					checkUnknownError(pass, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// kindConstants groups this package's declared constants by their defined
// "kind" type (an integer type whose name contains "Kind").
func kindConstants(pass *Pass) map[*types.TypeName][]*types.Const {
	out := make(map[*types.TypeName][]*types.Const)
	for _, obj := range pass.Info.Defs {
		c, ok := obj.(*types.Const)
		if !ok || c.Name() == "_" {
			continue
		}
		named, ok := c.Type().(*types.Named)
		if !ok {
			continue
		}
		tn := named.Obj()
		if tn.Pkg() != pass.Pkg || !strings.Contains(tn.Name(), "Kind") {
			continue
		}
		if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
			continue
		}
		out[tn] = append(out[tn], c)
	}
	return out
}

// checkKindSwitch verifies one codec-file switch over a kind type: full
// constant coverage, a default arm, and ErrUnknownKind in the default.
func checkKindSwitch(pass *Pass, sw *ast.SwitchStmt, kinds map[*types.TypeName][]*types.Const) {
	if sw.Tag == nil {
		return
	}
	tagType, ok := pass.Info.TypeOf(sw.Tag).(*types.Named)
	if !ok {
		return
	}
	consts := kinds[tagType.Obj()]
	if len(consts) == 0 {
		return
	}
	name := tagType.Obj().Name()
	checkEnumSwitch(pass, sw, consts, enumSwitchReports{
		missing: "switch over " + name + " is missing an arm for %s: every frame kind " +
			"needs both encode and decode handling",
		noDefault: "switch over " + name + " has no default arm: corrupt input must fail with " +
			"the typed wire.ErrUnknownKind, not fall through silently",
		noUnknown: "default arm for " + name + " switch does not wrap ErrUnknownKind: " +
			"callers must be able to errors.Is an unknown kind apart from a clean close",
	})
}

// enumSwitchReports is one analyzer's wording of checkEnumSwitch's three
// findings; missing formats the name of the constant without an arm.
type enumSwitchReports struct {
	missing, noDefault, noUnknown string
}

// checkEnumSwitch requires sw to have an arm for every constant in consts
// (reported in name order) and a default arm that mentions ErrUnknownKind.
func checkEnumSwitch(pass *Pass, sw *ast.SwitchStmt, consts []*types.Const, r enumSwitchReports) {
	sort.Slice(consts, func(i, j int) bool { return consts[i].Name() < consts[j].Name() })
	covered := map[string]bool{}
	var defaultClause *ast.CaseClause
	for _, cl := range sw.Body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			defaultClause = cc
			continue
		}
		for _, e := range cc.List {
			var obj types.Object
			switch e := e.(type) {
			case *ast.Ident:
				obj = pass.Info.Uses[e]
			case *ast.SelectorExpr:
				obj = pass.Info.Uses[e.Sel]
			}
			if c, ok := obj.(*types.Const); ok {
				covered[c.Name()] = true
			}
		}
	}
	for _, c := range consts {
		if !covered[c.Name()] {
			pass.Reportf(sw.Pos(), r.missing, c.Name())
		}
	}
	if defaultClause == nil {
		pass.Reportf(sw.Pos(), "%s", r.noDefault)
		return
	}
	if !mentionsIdent(defaultClause, "ErrUnknownKind") {
		pass.Reportf(defaultClause.Pos(), "%s", r.noUnknown)
	}
}

// checkUnknownError flags "unknown ..." errors that are not errors.Is-able
// as ErrUnknownKind.
func checkUnknownError(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || len(call.Args) == 0 {
		return
	}
	full := fn.FullName()
	if full != "fmt.Errorf" && full != "errors.New" {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	// Only wire-format unknowns are in scope: "unknown frame kind",
	// "unknown codec id". Unknown nodes, fault specs, flags etc. are
	// application errors, not stream corruption.
	msg := strings.ToLower(lit.Value)
	if !strings.Contains(msg, "unknown") ||
		!(strings.Contains(msg, "frame kind") || strings.Contains(msg, "codec")) {
		return
	}
	if full == "errors.New" {
		pass.Reportf(call.Pos(), "unknown-kind error built with errors.New: use "+
			"fmt.Errorf(..., %%w, wire.ErrUnknownKind) so it is errors.Is-able")
		return
	}
	wraps := strings.Contains(lit.Value, "%w")
	mentions := false
	for _, arg := range call.Args[1:] {
		if exprMentionsIdent(arg, "ErrUnknownKind") {
			mentions = true
		}
	}
	if !wraps || !mentions {
		pass.Reportf(call.Pos(), "unknown-kind error does not wrap the typed sentinel: "+
			"append \": %%w\" and wire.ErrUnknownKind so transports can errors.Is it")
	}
}

func mentionsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func exprMentionsIdent(e ast.Expr, name string) bool { return mentionsIdent(e, name) }
