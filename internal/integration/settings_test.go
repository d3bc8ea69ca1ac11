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
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unsetSettings is every exported field of a settings type that no
// program sets, keyed "dir.Type.Field", with the reason it stays a
// field. A settings type is an exported struct under internal/ named
// …Config or Options. The list is exact, so a field that gains a setter,
// or goes, is dropped here too.
var unsetSettings = map[string]string{
	"internal/core.Options.CollectionAuth":   "a deployment setting: the site's authorizer of Collection writes",
	"internal/core.Options.Credential":       "a deployment setting: the secret the site's hosts present",
	"internal/core.Options.CollectionShards": "only the seed sweep sets it",

	"internal/resilient.BreakerConfig.FailureThreshold": "only tests set it, to keep wall-clock tests short",
	"internal/resilient.BreakerConfig.Cooldown":         "only tests set it, to keep wall-clock tests short",

	"internal/vault.Config.CapacityBytes":  "exported on the wire as vault_capacity_bytes",
	"internal/vault.Config.CostPerByte":    "exported on the wire as vault_cost_per_byte",
	"internal/vault.Config.SecurityPolicy": "exported on the wire as vault_security_policy",

	"internal/classobj.Config.Policy": "a class's check of directed placements",
}

// TestEverySettingHasASetter holds that a setting has a value in use
// besides its default: each exported field of a settings type is set by
// a non-test file under internal/, cmd/, bench/ or examples/ outside
// the field's own package, by a keyed composite literal, an assignment,
// or &x.F (a flag binding). A field only its own package or its tests
// set has one value, and is a constant. Fields are matched by type, not
// name: Parallelism is a field of three configs.
func TestEverySettingHasASetter(t *testing.T) {
	pkgs := checkedTree(t)
	declared := map[string]string{} // key → position
	set := map[string]bool{}
	for _, p := range pkgs {
		if strings.HasPrefix(p.rel, "internal/") {
			scope := p.pkg.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") && name != "Options" {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						declared[p.rel+"."+name+"."+f.Name()] = p.fset.Position(f.Pos()).String()
					}
				}
			}
		}
		mark := func(owner types.Type, field string) {
			if n, ok := deref(owner).(*types.Named); ok && n.Obj().Pkg() != nil {
				if rel := strings.TrimPrefix(n.Obj().Pkg().Path(), "legion/"); rel != p.rel {
					set[rel+"."+n.Obj().Name()+"."+field] = true
				}
			}
		}
		markSelector := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := p.info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			// Walk the embedding path to the struct that declares the field.
			owner, idx := s.Recv(), s.Index()
			for _, i := range idx[:len(idx)-1] {
				owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
			}
			mark(owner, sel.Sel.Name)
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								mark(p.info.TypeOf(n), key.Name)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markSelector(lhs)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSelector(n.X)
					}
				}
				return true
			})
		}
	}
	var unset []string
	for key := range declared {
		if !set[key] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		if _, ok := unsetSettings[key]; !ok {
			t.Errorf("%s: %s is a setting no program sets; make it the constant it always is", declared[key], key)
		}
	}
	for key := range unsetSettings {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s is allowed unset but not declared; drop it from unsetSettings", key)
		} else if set[key] {
			t.Errorf("%s is allowed unset but a program sets it; drop it from unsetSettings", key)
		}
	}
}

// TestOneWireFormat holds that the system reads one wire format: no
// non-test file outside internal/attr imports encoding/gob. attr's
// GobEncode and GobDecode let proto's gob test reference carry
// attributes; anywhere else gob would be a second format for something
// the system itself reads.
func TestOneWireFormat(t *testing.T) {
	walkNonTest(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if path.Dir(rel) == "internal/attr" {
			return
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s: imports encoding/gob; the system's one format is the wire codec", fset.Position(imp.Pos()))
			}
		}
	})
}

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
