package vclock_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

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
