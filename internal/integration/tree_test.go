package integration

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
	"sync"
	"testing"
)

// checked is one of the repo's packages, type-checked from source.
type checked struct {
	rel   string // slash-separated directory from the repo root
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// The tree, type-checked once for every test that reads it.
var (
	treeOnce sync.Once
	tree     []checked
	treeErr  error
)

// checkedTree is every package under internal/, cmd/, bench/ and
// examples/, type-checked from source by the first test that asks.
func checkedTree(t *testing.T) []checked {
	t.Helper()
	treeOnce.Do(func() {
		tree, treeErr = typeCheck("./internal/...", "./cmd/...", "./bench/...", "./examples/...")
	})
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// typeCheck type-checks the non-test files of every package the go list
// patterns name, each against the export data go list -export builds
// for its imports.
func typeCheck(patterns ...string) ([]checked, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	list := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard"}, patterns...)...)
	list.Dir = root
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var ours []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard {
			ours = append(ours, p)
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	var pkgs []checked
	for _, p := range ours {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			return nil, err
		}
		c := checked{rel: filepath.ToSlash(rel), fset: fset, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			c.files = append(c.files, f)
		}
		if c.pkg, err = (&types.Config{Importer: imp}).Check(p.ImportPath, fset, c.files, c.info); err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, c)
	}
	return pkgs, nil
}

// deref is t without its pointer, if it is one.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
