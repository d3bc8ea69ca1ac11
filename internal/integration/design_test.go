package integration

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designRef is a backticked qualified name in DESIGN.md: `pkg.Name` or
// `pkg.Type.Member`, the whole of the backticked span.
var designRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?`")

// closureFrame is the name Go gives a function literal in a profile
// frame: `sim.Drive.func1` is the first closure in sim.Drive.
var closureFrame = regexp.MustCompile(`^func[0-9]+$`)

// TestDesignNamesResolve holds DESIGN.md to the tree: every backticked
// `pkg.Name` or `pkg.Type.Member` whose pkg is a directory under
// internal/ (by its last element, so `daemon` is
// internal/collection/daemon) must name a declaration there — a
// function, type, variable or constant, or a method or struct field of
// a type. Not Go names, and so not checked: a Go keyword (`wire.go`
// is a file) and a lower-case name with an underscore, which is a
// BENCHMARK.json metric (`collection.update_us`).
func TestDesignNamesResolve(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // package → declared names
	for _, p := range checkedTree(t) {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		pkg := path.Base(p.rel)
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, f := range p.files {
			declare(decls[pkg], f)
		}
	}
	checked := map[string]bool{}
	for _, m := range designRef.FindAllStringSubmatch(string(doc), -1) {
		ref, pkg, name, member := m[0], m[1], m[2], m[3]
		names, ok := decls[pkg]
		if !ok || checked[ref] {
			continue
		}
		if token.IsKeyword(name) || token.IsKeyword(member) ||
			strings.Contains(name+member, "_") && strings.ToLower(name+member) == name+member {
			continue
		}
		checked[ref] = true
		key := name
		if member != "" && !closureFrame.MatchString(member) {
			key += "." + member
		}
		if !names[key] {
			t.Errorf("DESIGN.md names %s, which internal/…/%s does not declare", ref, pkg)
		}
	}
	t.Logf("%d distinct qualified names checked", len(checked))
}

// declare records f's top-level names, and each method and struct
// field as "Type.Name", into names.
func declare(names map[string]bool, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				names[receiver(d.Recv)+"."+d.Name.Name] = true
			} else {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
}
