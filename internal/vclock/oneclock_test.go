package vclock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wallReads is every non-test file under internal/ and cmd/ that may
// read the wall clock directly, with its count of time.Now and
// time.Since references. Everything else takes a vclock.Clock. The
// counts are exact, so a site removed is a line removed here too.
var wallReads = map[string]int{
	// The wall clock itself, and NewVirtual's epoch.
	"internal/vclock/wall.go":    4,
	"internal/vclock/virtual.go": 1,
	// Socket deadlines and the TCP round-trip histogram.
	"internal/orb/tcp.go": 4,
	// Spans and histograms (ROADMAP item 3, slice A).
	"internal/telemetry/span.go":      2,
	"internal/telemetry/telemetry.go": 1,
	// Wall-cost histogram stamps.
	"internal/enactor/enactor.go":       2,
	"internal/collection/collection.go": 1,
	"internal/collection/router.go":     1,
	"internal/host/host.go":             1,
	// Experiment timers.
	"internal/experiments/ablations.go":  2,
	"internal/experiments/collection.go": 10,
	"internal/experiments/dynamics.go":   4,
	"internal/experiments/federation.go": 2,
	"internal/experiments/interfaces.go": 4,
	"internal/experiments/perf.go":       4,
	"internal/experiments/pipeline.go":   2,
	"internal/experiments/predictive.go": 4,
	"internal/experiments/rebalance.go":  2,
	"internal/experiments/resilience.go": 2,
	"internal/experiments/scale.go":      2,
	"internal/experiments/schedfig.go":   4,
	// A CLI's default seed and its elapsed-time report.
	"cmd/legion-run/main.go": 3,
}

// TestOneClockPerGraph holds the rule that time reaches a service only
// through the vclock.Clock it was built with: no value of type
// func() time.Time is stored, passed or returned, the runtime's
// SetClock is the only clock setter, and the wall clock is read only
// where wallReads allows.
func TestOneClockPerGraph(t *testing.T) {
	root := filepath.Join("..", "..")
	reads := map[string]int{}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			if n := checkClockUse(t, fset, rel, f); n > 0 {
				reads[rel] = n
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for file, n := range reads {
		if want := wallReads[file]; n != want {
			t.Errorf("%s: %d time.Now/time.Since references, allowed %d; take the clock the service was built with", file, n, want)
		}
	}
	for file, want := range wallReads {
		if _, ok := reads[file]; !ok {
			t.Errorf("%s: allowed %d time.Now/time.Since references, found none; drop it from wallReads", file, want)
		}
	}
}

// checkClockUse reports f's clock-function types and stray SetClock
// methods, and returns its count of time.Now and time.Since references.
func checkClockUse(t *testing.T, fset *token.FileSet, rel string, f *ast.File) int {
	t.Helper()
	timePkg := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timePkg = "time"
			if imp.Name != nil {
				timePkg = imp.Name.Name
			}
		}
	}
	isTime := func(e ast.Expr, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && timePkg != "" && x.Name == timePkg
	}
	isClockFunc := func(e ast.Expr) bool {
		ft, ok := e.(*ast.FuncType)
		return ok && ft.Params.NumFields() == 0 && ft.Results.NumFields() == 1 &&
			isTime(ft.Results.List[0].Type, "Time")
	}
	checkFields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, fd := range fl.List {
			if isClockFunc(fd.Type) {
				t.Errorf("%s: %s of type func() time.Time; take a vclock.Clock at construction", fset.Position(fd.Pos()), what)
			}
		}
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.StructType:
			checkFields(node.Fields, "field")
		case *ast.FuncType:
			checkFields(node.Params, "parameter")
			checkFields(node.Results, "result")
		case *ast.FuncDecl:
			if node.Recv != nil && node.Name.Name == "SetClock" &&
				!(rel == "internal/orb/orb.go" && recvName(node.Recv) == "Runtime") {
				t.Errorf("%s: SetClock on %s; orb.Runtime.SetClock is the only clock setter", fset.Position(node.Pos()), recvName(node.Recv))
			}
		case *ast.SelectorExpr:
			if isTime(node, "Now") || isTime(node, "Since") {
				n++
			}
		}
		return true
	})
	return n
}

// recvName is the type name of a method's receiver.
func recvName(recv *ast.FieldList) string {
	e := recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
