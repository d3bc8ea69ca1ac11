package integration

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
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
	// A daemon's telemetry listener, on the wall clock.
	"cmd/legiond/main.go": 1,
}

// bareConds is every non-test file under internal/ and cmd/ that may
// name sync.Cond or sync.NewCond, with its exact count. Everything else
// waits on its clock's Gate or Group: a goroutine parked on a bare
// sync.Cond under a virtual clock is parked where the engine cannot see
// it, so the engine waits on it forever.
var bareConds = map[string]int{
	// The virtual engine's own barrier.
	"internal/vclock/virtual.go": 2,
}

// bareRecvs is every non-test file under internal/ and cmd/ that may
// receive from a channel, with its exact count of receives: each <-ch,
// in a select case or not, and each range over a channel. Everything
// else waits on its clock's Gate or Group (or vclock.Every's stop): a
// goroutine parked on a bare channel under a virtual clock keeps its
// busy credit, so the engine holds time still and the goroutine that
// would have sent waits on it forever.
var bareRecvs = map[string]int{
	// The clocks themselves: a parked waiter's token, the worker pool's
	// hand-off, a foreign parent's end, and the wall clock's timers.
	"internal/vclock/virtual.go": 5,
	"internal/vclock/ctx.go":     2,
	"internal/vclock/wall.go":    9,
	// A socket call's reply or its context's end.
	"internal/orb/tcp.go": 2,
	// The wall clock's worker pool.
	"internal/fanout/fanout.go": 1,
	// E3b times a trigger outcall on the wall clock.
	"internal/experiments/dynamics.go": 2,
	// Wall CLIs: legiond waits for SIGINT, legion-query -watch re-runs
	// its query on a wall ticker.
	"cmd/legiond/main.go":      1,
	"cmd/legion-query/main.go": 1,
}

// TestOneClockPerGraph holds the rule that time reaches a service only
// through the vclock.Clock it was built with: no value of type
// func() time.Time is stored, passed or returned, the runtime's
// SetClock is the only clock setter, the wall clock is read only where
// wallReads allows, a goroutine is started bare only where bareGos
// allows, a sync.Cond is used only where bareConds allows, and a
// channel is received from only where bareRecvs allows.
func TestOneClockPerGraph(t *testing.T) {
	reads, gos, conds, recvs := map[string]int{}, map[string]int{}, map[string]int{}, map[string]int{}
	for _, p := range checkedTree(t) {
		if !strings.HasPrefix(p.rel, "internal/") && !strings.HasPrefix(p.rel, "cmd/") {
			continue
		}
		for _, f := range p.files {
			rel := path.Join(p.rel, filepath.Base(p.fset.File(f.Pos()).Name()))
			if n := checkClockUse(t, p.fset, rel, f); n > 0 {
				reads[rel] = n
			}
			syncPkg := importName(f, "sync")
			ast.Inspect(f, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.GoStmt:
					gos[rel]++
				case *ast.SelectorExpr:
					if x, ok := node.X.(*ast.Ident); ok && syncPkg != "" && x.Name == syncPkg &&
						(node.Sel.Name == "Cond" || node.Sel.Name == "NewCond") {
						conds[rel]++
					}
				case *ast.UnaryExpr:
					if node.Op == token.ARROW {
						recvs[rel]++
					}
				case *ast.RangeStmt:
					if _, ok := p.info.TypeOf(node.X).Underlying().(*types.Chan); ok {
						recvs[rel]++
					}
				}
				return true
			})
		}
	}
	exact(t, reads, wallReads, "time.Now/time.Since references", "take the clock the service was built with", "wallReads")
	exact(t, gos, bareGos, "go statements", "spawn with the clock's Go", "bareGos")
	exact(t, conds, bareConds, "sync.Cond references", "wait on the clock's Gate or Group", "bareConds")
	exact(t, recvs, bareRecvs, "channel receives", "wait on the clock's Gate or Group", "bareRecvs")
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

// checkClockUse reports f's clock-function types and stray SetClock
// methods, and returns its count of time.Now and time.Since references.
func checkClockUse(t *testing.T, fset *token.FileSet, rel string, f *ast.File) int {
	t.Helper()
	timePkg := importName(f, "time")
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
				!(rel == "internal/orb/orb.go" && receiver(node.Recv) == "Runtime") {
				t.Errorf("%s: SetClock on %s; orb.Runtime.SetClock is the only clock setter", fset.Position(node.Pos()), receiver(node.Recv))
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

// importName is the name f refers to the one-element standard package
// pkg (such as "time") by, or "" if f does not import it.
func importName(f *ast.File, pkg string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return pkg
		}
	}
	return ""
}
