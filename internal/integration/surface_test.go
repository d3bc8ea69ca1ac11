package integration

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports is every exported func or method under internal/ and
// cmd/ whose name no non-test file uses, keyed "dir.Name" for a function
// and "dir.Recv.Name" for a method. Everything else exported is called
// by the program, an example or the benchmark. The list is exact, so a
// name that gains a caller, or goes, is dropped here too.
var testOnlyExports = map[string]bool{
	// Methods an interface outside the repo calls: gob's encoder and
	// decoder, errors.Is, container/heap.
	"internal/attr.Value.GobDecode":       true,
	"internal/attr.Value.GobEncode":       true,
	"internal/orb.RemoteError.Unwrap":     true,
	"internal/sched.Bitmap.GobDecode":     true,
	"internal/sched.Bitmap.GobEncode":     true,
	"internal/vault.notFoundError.Unwrap": true,
	"internal/vclock.eventHeap.Swap":      true,

	// The chaos harness: fault controls that tests aim at a World.
	"internal/chaos.World.CrashHost":   true,
	"internal/chaos.World.CrashVault":  true,
	"internal/chaos.World.Flaky":       true,
	"internal/chaos.World.FlakyMethod": true,
	"internal/chaos.World.HealAll":     true,
	"internal/chaos.World.Partition":   true,

	// Accessors tests read to assert what a service did.
	"internal/attr.Value.IntVal":             true,
	"internal/attr.Value.ListVal":            true,
	"internal/classobj.Class.Created":        true,
	"internal/economy.Ledger.LiveCharges":    true,
	"internal/enactor.Enactor.Enacted":       true,
	"internal/fanout.Limiter.InFlight":       true,
	"internal/fanout.Limiter.Limit":          true,
	"internal/host.GenericObject.Generation": true,
	"internal/host.GenericObject.Pings":      true,
	"internal/host.Host.PreemptedTokens":     true,
	"internal/host.Host.RunningInstances":    true,
	"internal/host.Host.Triggers":            true,
	"internal/monitor.Liveness.LastBeat":     true,
	"internal/monitor.Monitor.DroppedEvents": true,
	"internal/orb.DispatchTable.Methods":     true,
	"internal/orb.Runtime.Locals":            true,
	"internal/orb.ServiceObject.Methods":     true,
	"internal/rge.TriggerSet.FireCount":      true,
	"internal/rge.TriggerSet.OutcallCount":   true,
	"internal/rge.TriggerSet.Triggers":       true,
	"internal/scheduler.HostCache.Evicted":   true,
	"internal/telemetry.Histogram.Mean":      true,
	"internal/telemetry.Registry.GaugeValue": true,
	"internal/telemetry.SpanLog.ByName":      true,
	"internal/telemetry.SpanLog.ByTrace":     true,
	"internal/telemetry.SpanLog.Total":       true,
	"internal/vault.Vault.Used":              true,
	"internal/vclock.Virtual.PendingEvents":  true,

	// Ways tests drive the virtual clock's engine and write literals.
	"internal/vclock.Virtual.AdvanceTo":    true,
	"internal/vclock.Virtual.RunUntilIdle": true,
	"internal/loid.MustParse":              true,
	"internal/query.MustParse":             true,
}

// TestNoTestOnlyExports holds that the program exports nothing only its
// tests reach: an exported func or method that no non-test file under
// internal/, cmd/, bench/ or examples/ names is a mechanism the tests
// keep alive. Delete it, or move it into the test that uses it. Names are
// matched, not objects, so any use of a name covers every declaration of
// it.
func TestNoTestOnlyExports(t *testing.T) {
	declared := map[string]string{} // key → position
	used := map[string]bool{}
	walkNonTest(t, func(rel string, fset *token.FileSet, f *ast.File) {
		decls := map[*ast.Ident]bool{}
		if strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				decls[fd.Name] = true
				key := filepath.ToSlash(filepath.Dir(rel)) + "."
				if fd.Recv != nil {
					key += receiver(fd.Recv) + "."
				}
				declared[key+fd.Name.Name] = fset.Position(fd.Pos()).String()
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
	})
	var unused []string
	for key := range declared {
		if !used[key[strings.LastIndexByte(key, '.')+1:]] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if !testOnlyExports[key] {
			t.Errorf("%s: %s is exported but only tests use it; delete it or move it into its test", declared[key], key)
		}
	}
	for key := range testOnlyExports {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s is allowed but not declared; drop it from testOnlyExports", key)
		} else if used[key[strings.LastIndexByte(key, '.')+1:]] {
			t.Errorf("%s is allowed but has a non-test user; drop it from testOnlyExports", key)
		}
	}
}

// TestNoProtoTypeAssertions holds that a payload crossing the ORB is
// typed in one place: handlers take their argument through orb.Typed or
// orb.SharedTyped, and callers read replies through orb.As, so a peer's
// wrong-typed payload is an error and never a panic. Any type assertion
// to a proto type, single-value or comma-ok, in non-test Go fails.
func TestNoProtoTypeAssertions(t *testing.T) {
	walkNonTest(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(rel, "bench/") {
			return // the frozen benchmark instrument, edited only in its own changes
		}
		name := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"legion/internal/proto"` {
				name = "proto"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return
		}
		commaOK := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == 2 && len(n.Rhs) == 1 {
					commaOK[n.Rhs[0]] = true
				}
			case *ast.ValueSpec:
				if len(n.Names) == 2 && len(n.Values) == 1 {
					commaOK[n.Values[0]] = true
				}
			case *ast.TypeAssertExpr:
				typ := n.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				sel, ok := typ.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == name {
					form := "single-value"
					if commaOK[n] {
						form = "comma-ok"
					}
					t.Errorf("%s: %s type assertion to proto.%s; read a reply with orb.As, take an argument with orb.Typed",
						fset.Position(n.Pos()), form, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestOneWorldBuilder holds that a world under internal/, cmd/ or
// examples/ is declared once: a sim.Spec that sim.New builds. Outside
// internal/sim, and internal/core which defines them, a non-test file
// that calls core.New, AddHost, AddVault or batchq.New is wiring a world
// by hand. bench/ stays out, as the measuring instrument.
func TestOneWorldBuilder(t *testing.T) {
	walkNonTest(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(rel, "bench/") ||
			strings.HasPrefix(rel, "internal/sim/") || strings.HasPrefix(rel, "internal/core/") {
			return
		}
		// The local names of the packages whose New builds a world's
		// parts: core's metasystem and batchq's queue.
		builders := map[string]string{}
		for _, imp := range f.Imports {
			pkg := strings.TrimPrefix(strings.Trim(imp.Path.Value, `"`), "legion/internal/")
			if pkg != "core" && pkg != "batchq" {
				continue
			}
			name := pkg
			if imp.Name != nil {
				name = imp.Name.Name
			}
			builders[name] = pkg
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && builders[pkg.Name] != "" && name == "New" {
				name = builders[pkg.Name] + ".New"
			} else if name != "AddHost" && name != "AddVault" {
				return true
			}
			t.Errorf("%s: %s builds a world by hand; declare a sim.Spec and build it with sim.New",
				fset.Position(call.Pos()), name)
			return true
		})
	})
}

// TestNoErrorTextMatching holds that the program learns how a call
// ended from the error's type, never its text: the ORB reports a
// transport failure as ErrUnreachable or ErrConnLost and carries the
// sentinels it knows across the wire, so errors.Is answers every
// question. Any strings.* call in non-test Go that takes an error's
// text, directly or through a local variable assigned from .Error() in
// the same function, fails.
func TestNoErrorTextMatching(t *testing.T) {
	walkNonTest(t, func(rel string, fset *token.FileSet, f *ast.File) {
		if strings.HasPrefix(rel, "bench/") {
			return // the frozen benchmark instrument, edited only in its own changes
		}
		name := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"strings"` {
				name = "strings"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			texts := map[string]bool{} // locals assigned from an error's text
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					for i, rhs := range n.Rhs {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && isErrorText(rhs) {
							texts[id.Name] = true
						}
					}
				case *ast.ValueSpec:
					for i, v := range n.Values {
						if i < len(n.Names) && isErrorText(v) {
							texts[n.Names[i].Name] = true
						}
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != name {
					return true
				}
				for _, arg := range call.Args {
					id, local := arg.(*ast.Ident)
					if isErrorText(arg) || local && texts[id.Name] {
						t.Errorf("%s: strings.%s reads an error's text; test its identity with errors.Is",
							fset.Position(call.Pos()), sel.Sel.Name)
						break
					}
				}
				return true
			})
		}
	})
}

// isErrorText reports whether e is a call of an Error method with no
// arguments, such as err.Error().
func isErrorText(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Error"
}

// walkNonTest parses every non-test Go file under internal/, cmd/, bench/
// and examples/ and hands it to visit with its slash-separated path from
// the repo root.
func walkNonTest(t *testing.T, visit func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	for _, dir := range []string{"internal", "cmd", "bench", "examples"} {
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

// receiver is the type name of a method's receiver.
func receiver(recv *ast.FieldList) string {
	e := recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
