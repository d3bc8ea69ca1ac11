package integration

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreached is every package-level func, method, type, var and const
// under internal/ and cmd/ that no program reaches, keyed "dir.Name",
// or "dir.Recv.Name" for a method, with the reason it stays. Entries
// are roots too, so what only an entry reaches is not listed on its
// own. The list is exact: a declaration a program comes to reach, or
// one that goes, is dropped here too.
var unreached = map[string]string{
	// The chaos harness: fault controls that tests aim at a World.
	"internal/chaos.World.CrashHost":   "a fault tests aim at a World",
	"internal/chaos.World.CrashVault":  "a fault tests aim at a World",
	"internal/chaos.World.Flaky":       "a fault tests aim at a World",
	"internal/chaos.World.FlakyMethod": "a fault tests aim at a World",
	"internal/chaos.World.HealAll":     "a fault tests aim at a World",
	"internal/chaos.World.Partition":   "a fault tests aim at a World",

	// Ways tests drive the virtual clock's engine and write literals.
	"internal/vclock.Virtual.AdvanceTo":    "drives the engine to an absolute virtual time",
	"internal/vclock.Virtual.RunUntilIdle": "drives the engine until no event is left",
	"internal/loid.MustParse":              "a LOID literal in a test",
	"internal/query.MustParse":             "a query literal in a test",

	// Accessors tests read to assert what a service did, a fact no
	// program output carries.
	"internal/attr.Value.IntVal":                 "an int attribute's value",
	"internal/attr.Value.ListVal":                "a list attribute's elements",
	"internal/classobj.Class.Created":            "how many instances a class started",
	"internal/classobj.Class.Meta":               "which class object manages a class: Figure 1's hierarchy",
	"internal/collection/daemon.Daemon.Breakers": "which breaker set a daemon shares; only identity shows it",
	"internal/collection/daemon.Daemon.Stats":    "a daemon's sweep and error counts; no metric carries them",
	"internal/economy.Ledger.LiveCharges":        "how many charges are not yet refunded",
	"internal/enactor.Enactor.Breakers":          "which breaker set an Enactor shares; only identity shows it",
	"internal/enactor.Enactor.Enacted":           "the instances a request created",
	"internal/fanout.Limiter.InFlight":           "how many tasks a limiter admitted",
	"internal/fanout.Limiter.Limit":              "a limiter's bound",
	"internal/host.GenericObject.Generation":     "how often an object was reactivated",
	"internal/host.GenericObject.Pings":          "how many pings an object served",
	"internal/host.Host.RunningInstances":        "which instances a host runs",
	"internal/host.Host.Triggers":                "a host's trigger set",
	"internal/monitor.Liveness.LastBeat":         "when a resource last answered",
	"internal/monitor.Monitor.DroppedEvents":     "how many events overflowed a Monitor's queues",
	"internal/netobj.Link.Observe":               "a link's measured latency and bandwidth, as a measurement would move them",
	"internal/orb.DispatchTable.Methods":         "the methods a shared table serves",
	"internal/orb.Runtime.Lookup":                "the object a runtime binds to a LOID, the activated object tests read",
	"internal/orb.Runtime.Locals":                "which objects a runtime holds",
	"internal/orb.ServiceObject.Methods":         "the methods an object serves: Table 1's interfaces",
	"internal/resilient.Breaker.State":           "a breaker's state; the program only asks Allow, which moves it",
	"internal/rge.TriggerSet.FireCount":          "how often a trigger fired",
	"internal/rge.TriggerSet.OutcallCount":       "how many outcalls a trigger has: Watch's idempotency",
	"internal/rge.TriggerSet.Triggers":           "which triggers a set defines",
	"internal/scheduler.HostCache.Evicted":       "how many expired entries fills swept out",
	"internal/telemetry.Histogram.Mean":          "a histogram's mean",
	"internal/telemetry.Registry.GaugeValue":     "a gauge's value",
	"internal/telemetry.SpanLog.ByName":          "the spans of one name",
	"internal/telemetry.SpanLog.ByTrace":         "the spans of one trace",
	"internal/telemetry.SpanLog.Total":           "how many spans were ever recorded",
	"internal/vault.Vault.Used":                  "a vault's stored bytes",
	"internal/vclock.Virtual.PendingEvents":      "how many events are scheduled: the leak checks",
}

// TestEveryDeclarationIsReached holds that the program declares nothing
// only its tests reach. Every package-level func, method, type, var and
// const under internal/ and cmd/ is reached from a program's roots —
// each main under cmd/, bench/ and examples/, each init, each
// package-level var's initializer — or is on unreached with a reason.
// A declaration reaches every object its source names, as the type
// checker resolves it; a method is reached when it is named, or when its
// type is reached and an interface names it, one in the tree or one the
// standard library calls through any (stdInterfaces); an iota const
// block is reached as a whole. Objects are keyed by package path,
// receiver type and name: a package imported from export data has other
// objects than its source check.
func TestEveryDeclarationIsReached(t *testing.T) {
	decls, edges, roots := declGraph(checkedTree(t))
	reach := func(skip string) map[string]bool {
		seen := map[string]bool{}
		var queue []string
		add := func(key string) {
			if !seen[key] {
				seen[key] = true
				queue = append(queue, key)
			}
		}
		for _, key := range roots {
			add(key)
		}
		for key := range unreached {
			if key != skip {
				add(key)
			}
		}
		for len(queue) > 0 {
			key := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, next := range edges[key] {
				add(next)
			}
		}
		return seen
	}
	reached := reach("")
	var missed []string
	for key := range decls {
		if !reached[key] {
			missed = append(missed, key)
		}
	}
	sort.Strings(missed)
	for _, key := range missed {
		t.Errorf("%s: %s is reached by no program; delete it or move it into its test", decls[key], key)
	}
	for key := range unreached {
		if _, ok := decls[key]; !ok {
			t.Errorf("%s is allowed unreached but not declared; drop it from unreached", key)
		} else if reach(key)[key] {
			t.Errorf("%s is allowed unreached but a program, or another entry, reaches it; drop it from unreached", key)
		}
	}
}

// stdInterfaces are the methods, as methodKey writes them, that the
// standard library calls on a value it holds as any or as a Context, so
// no signature in the tree names their interfaces: fmt's Stringer, gob's
// encoder and decoder hooks, errors' Unwrap and context's AfterFunc.
var stdInterfaces = [][]string{
	{"String() (string)"},
	{"GobEncode() ([]byte, error)"},
	{"GobDecode([]byte) (error)"},
	{"Unwrap() (error)"},
	{"AfterFunc(func()) (func() bool)"},
}

// declGraph is the tree's package-level declarations as a graph. decls
// holds the checked ones, under internal/ and cmd/, with their
// positions; edges maps a declaration to the declarations it reaches;
// roots are each main, init and var initializer.
func declGraph(pkgs []checked) (decls map[string]string, edges map[string][]string, roots []string) {
	decls, edges = map[string]string{}, map[string][]string{}
	ifaces := map[string][]string{} // an interface's methodKeys, by the keys joined
	addIface := func(keys []string) {
		if len(keys) > 0 {
			ifaces[strings.Join(keys, "; ")] = keys
		}
	}
	for _, keys := range stdInterfaces {
		addIface(keys)
	}
	var named []*types.TypeName
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			for _, typ := range signatureOrSelf(tv.Type) {
				if it, ok := typ.Underlying().(*types.Interface); ok {
					var keys []string
					for i := 0; i < it.NumMethods(); i++ {
						keys = append(keys, methodKey(it.Method(i)))
					}
					addIface(keys)
				}
			}
		}
		inScope := strings.HasPrefix(p.rel, "internal/") || strings.HasPrefix(p.rel, "cmd/")
		uses := func(key string, nodes ...ast.Node) {
			for _, n := range nodes {
				if n == nil {
					continue
				}
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := objKey(p.info.Uses[id]); k != "" && k != key {
							edges[key] = append(edges[key], k)
						}
					}
					return true
				})
			}
		}
		declare := func(id *ast.Ident) string {
			key := objKey(p.info.Defs[id])
			if inScope && id.Name != "_" {
				pos := p.fset.Position(id.Pos())
				decls[key] = fmt.Sprintf("%s/%s:%d", p.rel, filepath.Base(pos.Filename), pos.Line)
			}
			return key
		}
		initKey := strings.TrimPrefix(p.pkg.Path(), "legion/") + ".init"
		roots = append(roots, initKey)
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						key := initKey
						if d.Name.Name == "main" {
							key = objKey(p.info.Defs[d.Name])
							roots = append(roots, key)
						}
						uses(key, d)
						continue
					}
					uses(declare(d.Name), d)
				case *ast.GenDecl:
					var group []string // an iota block's names, each reaching all
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							key := declare(s.Name)
							uses(key, s)
							if tn, ok := p.info.Defs[s.Name].(*types.TypeName); ok {
								named = append(named, tn)
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								key := declare(id)
								if d.Tok == token.VAR {
									uses(key, s.Type)
								} else {
									uses(key, s)
									group = append(group, key)
								}
							}
							if d.Tok == token.VAR {
								for _, v := range s.Values {
									uses(initKey, v)
								}
							}
						}
					}
					if d.Tok == token.CONST && mentionsIota(d) {
						for _, key := range group {
							edges[key] = append(edges[key], group...)
						}
					}
				}
			}
		}
	}
	// A reached type reaches each of its methods, promoted ones included,
	// that an interface it satisfies calls.
	for _, tn := range named {
		if types.IsInterface(tn.Type()) {
			continue
		}
		methods := map[string]types.Object{}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			methods[methodKey(ms.At(i).Obj().(*types.Func))] = ms.At(i).Obj()
		}
		key := objKey(tn)
	next:
		for _, keys := range ifaces {
			for _, k := range keys {
				if methods[k] == nil {
					continue next
				}
			}
			for _, k := range keys {
				edges[key] = append(edges[key], objKey(methods[k]))
			}
		}
	}
	return decls, edges, roots
}

// signatureOrSelf is typ, or a signature's parameter types: an
// interface a called function takes is one the program satisfies.
func signatureOrSelf(typ types.Type) []types.Type {
	sig, ok := typ.(*types.Signature)
	if !ok {
		return []types.Type{typ}
	}
	var params []types.Type
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i).Type())
	}
	return params
}

// mentionsIota reports whether a const block uses iota.
func mentionsIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// methodKey is a method's name and signature, its types qualified by
// package path, so that a method of a package checked from source and
// one read from export data compare equal: "Name(T1, T2) (R1)".
func methodKey(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	list := func(t *types.Tuple) string {
		out := make([]string, t.Len())
		for i := range out {
			out[i] = typeString(t.At(i).Type())
		}
		return strings.Join(out, ", ")
	}
	key := f.Name() + "(" + list(sig.Params()) + ") (" + list(sig.Results()) + ")"
	if sig.Variadic() {
		key += " variadic"
	}
	return key
}

// typeString writes typ with each package named by its path.
func typeString(typ types.Type) string {
	return types.TypeString(typ, func(p *types.Package) string { return p.Path() })
}

// objKey names a package-level object, or a method, by its package path
// from the module root, its receiver type and its name; any other object
// has no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	prefix := strings.TrimPrefix(obj.Pkg().Path(), "legion/") + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			if n, ok := deref(recv.Type()).(*types.Named); ok {
				return prefix + n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return prefix + obj.Name()
}

// TestNoProtoTypeAssertions holds that a payload crossing the ORB is
// typed in one place: handlers take their argument through orb.Typed or
// orb.SharedTyped, and callers read replies through orb.As, so a peer's
// wrong-typed payload is an error and never a panic. Any type assertion
// to a proto type, single-value or comma-ok, in non-test Go fails.
func TestNoProtoTypeAssertions(t *testing.T) {
	for _, p := range checkedTree(t) {
		if strings.HasPrefix(p.rel+"/", "bench/") {
			continue // the frozen benchmark instrument, edited only in its own changes
		}
		for _, f := range p.files {
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
				continue
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
							p.fset.Position(n.Pos()), form, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// TestOneWorldBuilder holds that a world under internal/, cmd/ or
// examples/ is declared once: a sim.Spec that sim.New builds. Outside
// internal/sim, and internal/core which defines them, a non-test file
// that calls core.New, AddHost, AddVault or batchq.New is wiring a world
// by hand. bench/ stays out, as the measuring instrument.
func TestOneWorldBuilder(t *testing.T) {
	for _, p := range checkedTree(t) {
		if strings.HasPrefix(p.rel+"/", "bench/") ||
			strings.HasPrefix(p.rel+"/", "internal/sim/") || strings.HasPrefix(p.rel+"/", "internal/core/") {
			continue
		}
		for _, f := range p.files {
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
					p.fset.Position(call.Pos()), name)
				return true
			})
		}
	}
}

// TestNoErrorTextMatching holds that the program learns how a call
// ended from the error's type, never its text: the ORB reports a
// transport failure as ErrUnreachable or ErrConnLost and carries the
// sentinels it knows across the wire, so errors.Is answers every
// question. Any strings.* call in non-test Go that takes an error's
// text, directly or through a local variable assigned from .Error() in
// the same function, fails.
func TestNoErrorTextMatching(t *testing.T) {
	for _, p := range checkedTree(t) {
		if strings.HasPrefix(p.rel+"/", "bench/") {
			continue // the frozen benchmark instrument, edited only in its own changes
		}
		for _, f := range p.files {
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
				continue
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
								p.fset.Position(call.Pos()), sel.Sel.Name)
							break
						}
					}
					return true
				})
			}
		}
	}
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
