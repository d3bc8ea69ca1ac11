package vclock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
	"internal/vclock/wall.go":    3,
	"internal/vclock/virtual.go": 1,
	// Socket deadlines.
	"internal/orb/tcp.go": 2,
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

// bareGos is every non-test file under internal/ and cmd/ that may start
// a goroutine with a go statement, with its exact count. Everything else
// spawns through its clock's Go, which a virtual clock registers: a bare
// goroutine that parks on a virtual clock spends some other goroutine's
// busy credit, and the engine fires its next event early.
var bareGos = map[string]int{
	// The clocks themselves.
	"internal/vclock/wall.go":    3,
	"internal/vclock/virtual.go": 1,
	"internal/vclock/ctx.go":     1,
	// Sockets: the accept loop, a connection's server and reader, and the
	// write coalescer's flusher (ROADMAP item 9).
	"internal/orb/tcp.go":      3,
	"internal/orb/coalesce.go": 1,
	// The wall clock's worker pool; fanout.Do runs serially on any other.
	"internal/fanout/fanout.go": 1,
	// A daemon's telemetry listener and status line, on the wall clock.
	"cmd/legiond/main.go": 2,
}

// TestOneClockPerGraph holds the rule that time reaches a service only
// through the vclock.Clock it was built with: no value of type
// func() time.Time is stored, passed or returned, the runtime's
// SetClock is the only clock setter, the wall clock is read only where
// wallReads allows, and a goroutine is started bare only where bareGos
// allows.
func TestOneClockPerGraph(t *testing.T) {
	reads, gos := map[string]int{}, map[string]int{}
	walkSources(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if n := checkClockUse(t, fset, rel, f); n > 0 {
			reads[rel] = n
		}
		ast.Inspect(f, func(node ast.Node) bool {
			if _, ok := node.(*ast.GoStmt); ok {
				gos[rel]++
			}
			return true
		})
	})
	exact(t, reads, wallReads, "time.Now/time.Since references", "take the clock the service was built with", "wallReads")
	exact(t, gos, bareGos, "go statements", "spawn with the clock's Go", "bareGos")
}

// exact fails t for every file whose count in got differs from its
// allowance in allowed.
func exact(t *testing.T, got, allowed map[string]int, what, fix, table string) {
	t.Helper()
	for file, n := range got {
		if want := allowed[file]; n != want {
			t.Errorf("%s: %d %s, allowed %d; %s", file, n, what, want, fix)
		}
	}
	for file, want := range allowed {
		if _, ok := got[file]; !ok {
			t.Errorf("%s: allowed %d %s, found none; drop it from %s", file, want, what, table)
		}
	}
}

// TestDeadlinesAreEnded holds that every context a clock's WithDeadline
// derives is ended: assigned to a name that the function body it is
// derived in passes to vclock.End, plainly or deferred. go vet's
// lostcancel finds a CancelFunc that is never called; End is a function
// of the context instead, and this walk is what finds a context nobody
// ends — whose virtual deadline event would stay on the clock until it
// fired.
func TestDeadlinesAreEnded(t *testing.T) {
	derived := 0
	walkSources(t, func(rel string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(node ast.Node) bool {
			switch fn := node.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					derived += checkEnded(t, fset, fn.Body)
				}
			case *ast.FuncLit:
				derived += checkEnded(t, fset, fn.Body)
			}
			return true
		})
	})
	if derived == 0 {
		t.Fatal("found no WithDeadline derivation at all; the walk is looking in the wrong place")
	}
}

// checkEnded reports each WithDeadline derivation in body, not counting
// the function literals inside it (they are bodies of their own), whose
// context is not assigned to a name body passes to End; it returns how
// many derivations it saw.
func checkEnded(t *testing.T, fset *token.FileSet, body *ast.BlockStmt) int {
	t.Helper()
	isDerivation := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WithDeadline" {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return !ok || pkg.Name != "context" // context.WithDeadline has a CancelFunc, and vet
	}
	isEnd := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "vclock" && len(call.Args) == 1
	}
	var derivations []*ast.CallExpr
	assignedTo := map[*ast.CallExpr]string{}
	ended := map[string]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(node.Lhs) == len(node.Rhs) {
				for i, rhs := range node.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok {
						assignedTo[call] = types.ExprString(node.Lhs[i])
					}
				}
			}
		case *ast.CallExpr:
			if isDerivation(node) {
				derivations = append(derivations, node)
			} else if isEnd(node) {
				ended[types.ExprString(node.Args[0])] = true
			}
		}
		return true
	})
	for _, call := range derivations {
		name, ok := assignedTo[call]
		switch {
		case !ok:
			t.Errorf("%s: a WithDeadline context that is not assigned to a name, so nothing Ends it", fset.Position(call.Pos()))
		case !ended[name]:
			t.Errorf("%s: %s = …WithDeadline(…) with no vclock.End(%s) in the same function body", fset.Position(call.Pos()), name, name)
		}
	}
	return len(derivations)
}

// walkSources parses every non-test Go file under internal/ and cmd/ and
// hands it to visit with its slash-separated path from the repo root.
func walkSources(t *testing.T, visit func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			visit(filepath.ToSlash(rel), fset, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
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
