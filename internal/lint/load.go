package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadedPackage is one type-checked package ready for analysis.
type LoadedPackage struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info

	imp types.Importer // the export-data importer the package was checked with
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves the patterns with the go tool, type-checks every matched
// non-test package against compiler export data, and returns them ready
// for analysis. Dependencies (the standard library included) are consumed
// as export data only — they are never parsed — so a full-module load
// costs little more than `go build ./...`, and everything works offline.
func Load(patterns ...string) ([]*LoadedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %w", patterns, err)
	}

	exports := make(map[string]string) // import path -> export data file
	var roots []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pc := p
			roots = append(roots, &pc)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	var loaded []*LoadedPackage
	for _, p := range roots {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("lint: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		paths := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			paths[i] = filepath.Join(p.Dir, name)
		}
		lp, err := parseAndCheck(LoadedPackage{PkgPath: p.ImportPath, Name: p.Name, Dir: p.Dir, Fset: fset, imp: imp}, paths, nil)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	if len(loaded) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	return loaded, nil
}

// parseAndCheck parses the files at paths into pkg.Fset — taking a file's
// text from src when src has it, from disk otherwise — and type-checks them
// as pkg.PkgPath against pkg's importer. It returns a copy of pkg with
// Files, Types and Info filled in.
func parseAndCheck(pkg LoadedPackage, paths []string, src map[string][]byte) (*LoadedPackage, error) {
	pkg.Files = nil
	for _, path := range paths {
		var text any // nil: ParseFile reads the file from disk
		if b, ok := src[path]; ok {
			text = b
		}
		f, err := parser.ParseFile(pkg.Fset, path, text, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", filepath.Base(path), err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: pkg.imp}
	tp, err := conf.Check(pkg.PkgPath, pkg.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkg.PkgPath, err)
	}
	pkg.Types = tp
	return &pkg, nil
}
