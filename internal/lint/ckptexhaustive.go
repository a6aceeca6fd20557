package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewCkptExhaustive returns the checkpoint-kind analyzer, the CkptKind
// sibling of wireexhaustive. The checkpoint record enum has two homes a new
// kind must reach — the record codec, one function that both encodes and
// decodes, and the restore-time replay switch — and forgetting the second
// is the expensive one: the log writes fine, and the bug only surfaces when
// a kill-point test (or a real crash) replays a record the coordinator does
// not understand.
//
// Per switch, in the packages named "wire" and "tcpnet": every switch whose
// tag is the CkptKind type must carry a case arm for every declared
// CkptKind constant (enumerated from the type's defining package, so
// cross-package switches are covered), a default arm, and a reference to
// ErrUnknownKind in that default.
//
// Program-level, the two anchor switches must exist at all: encode and
// decode in recordFields (wire), replay-apply in RestoreCoordinator
// (tcpnet). Deleting or renaming one breaks the lint gate instead of the
// first crash-recovery run. The anchor check only fires when the anchor's
// home package was loaded and references CkptKind, so fixture and subset
// runs stay quiet.
func NewCkptExhaustive() *Analyzer {
	a := &Analyzer{
		Name: "ckptexhaustive",
		Doc: "verifies every CkptKind constant has codec and replay-apply arms\n" +
			"with a typed ErrUnknownKind default, so a new checkpoint record kind cannot\n" +
			"reach production without its replay path",
	}

	// anchors maps each home package to the one function whose switch
	// must dispatch every CkptKind there.
	anchors := map[string]string{"wire": "recordFields", "tcpnet": "RestoreCoordinator"}
	found := map[string]bool{}
	homeSeen := map[string]token.Position{} // loaded packages that reference CkptKind

	a.Run = func(pass *Pass) error {
		pkgName := pass.Pkg.Name()
		anchor, home := anchors[pkgName]
		if !home {
			return nil
		}
		sawKind := pass.Pkg.Scope().Lookup("CkptKind") != nil
		if !sawKind {
			for _, imp := range pass.Pkg.Imports() {
				if imp.Scope().Lookup("CkptKind") != nil {
					sawKind = true
					break
				}
			}
		}
		if !sawKind {
			return nil
		}
		if len(pass.Files) > 0 {
			homeSeen[pkgName] = pass.Fset.Position(pass.Files[0].Name.Pos())
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if sw, ok := n.(*ast.SwitchStmt); ok && checkCkptSwitch(pass, sw) && fd.Name.Name == anchor {
						found[pkgName] = true
					}
					return true
				})
			}
		}
		return nil
	}

	a.Finish = func(report func(Diagnostic)) error {
		for _, home := range []string{"wire", "tcpnet"} {
			if pos, loaded := homeSeen[home]; loaded && !found[home] {
				report(Diagnostic{Check: "ckptexhaustive", Pos: pos,
					Message: "no switch over CkptKind found in " + anchors[home] + ": package " +
						home + " must dispatch checkpoint records exhaustively there (or the " +
						"anchor table in ckptexhaustive.go needs the function's new name)"})
			}
		}
		return nil
	}
	return a
}

// checkCkptSwitch verifies one switch if its tag is the CkptKind type:
// full constant coverage against the type's defining package, a default
// arm, and ErrUnknownKind in the default. Reports whether the switch was a
// CkptKind switch at all.
func checkCkptSwitch(pass *Pass, sw *ast.SwitchStmt) bool {
	if sw.Tag == nil {
		return false
	}
	named, ok := pass.Info.TypeOf(sw.Tag).(*types.Named)
	if !ok || named.Obj().Name() != "CkptKind" || named.Obj().Pkg() == nil {
		return false
	}
	var consts []*types.Const
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			consts = append(consts, c)
		}
	}
	if len(consts) == 0 {
		return false
	}
	checkEnumSwitch(pass, sw, consts, enumSwitchReports{
		missing: "switch over CkptKind is missing an arm for %s: every checkpoint " +
			"record kind needs codec and replay handling",
		noDefault: "switch over CkptKind has no default arm: an unknown record must fail " +
			"with the typed wire.ErrUnknownKind, not fall through silently",
		noUnknown: "default arm of CkptKind switch does not reference " +
			"ErrUnknownKind: replay and decode must fail typed on a record kind they do not know",
	})
	return true
}
