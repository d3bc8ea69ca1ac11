package integration

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
	"internal/core.Options.CollectionShards": "paper §4's partitioned directory (core.go); the seed sweep is the one test that runs a Router-fronted core under faults",

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
	for _, p := range checkedTree(t) {
		if p.rel == "internal/attr" {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					t.Errorf("%s: imports encoding/gob; the system's one format is the wire codec", p.fset.Position(imp.Pos()))
				}
			}
		}
	}
}
