package integration

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
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

// goTestFlag is a -run, -bench or -fuzz flag on a go test command line,
// its pattern quoted or bare.
var goTestFlag = regexp.MustCompile("(?:^|\\s)-(run|bench|fuzz)[= ]+('[^']*'|\"[^\"]*\"|[^\\s`]+)")

// flagAtEnd is a line that a -run, -bench or -fuzz flag ends.
var flagAtEnd = regexp.MustCompile(`\s-(run|bench|fuzz)$`)

// testFunc is a test, benchmark, fuzz target or example a _test.go file
// declares, with its kind.
var testFunc = regexp.MustCompile(`(?m)^func ((Test|Benchmark|Fuzz|Example)\w*)\(`)

// TestDocCommandsNameTests holds the docs' go test commands to the
// tree, since a -run that names a deleted test passes and checks
// nothing. On every go test line of README.md, DESIGN.md,
// EXPERIMENTS.md and the CI workflow, the first /-separated element of
// each pattern must match, as a regexp, a function some _test.go file
// declares: a Test, Fuzz or Example for -run, a Benchmark for -bench, a
// Fuzz for -fuzz. '^$', which runs nothing on purpose, is exempt.
func TestDocCommandsNameTests(t *testing.T) {
	root := filepath.Join("..", "..")
	declared := map[string][]string{} // kind → names
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return err // .git: nothing to declare
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			declared[m[2]] = append(declared[m[2]], m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"} {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(src), "\n")
		for i, line := range lines {
			if !strings.Contains(line, "go test") {
				continue
			}
			if flagAtEnd.MatchString(line) && i+1 < len(lines) {
				line += " " + lines[i+1] // a command wrapped between flag and pattern
			}
		flags:
			for _, m := range goTestFlag.FindAllStringSubmatch(line, -1) {
				pattern := strings.Trim(m[2], `'"`)
				if pattern == "^$" {
					continue
				}
				checked++
				first, _, _ := strings.Cut(pattern, "/")
				re, err := regexp.Compile(first)
				if err != nil {
					t.Errorf("%s:%d: -%s %s: %v", doc, i+1, m[1], pattern, err)
					continue
				}
				for _, kind := range kinds[m[1]] {
					if slices.ContainsFunc(declared[kind], re.MatchString) {
						continue flags
					}
				}
				t.Errorf("%s:%d: go test -%s %s matches no %s function a _test.go file declares",
					doc, i+1, m[1], pattern, strings.Join(kinds[m[1]], ", "))
			}
		}
	}
	t.Logf("%d patterns checked", checked)
}
