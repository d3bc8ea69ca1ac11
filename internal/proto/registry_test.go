package proto

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/wire"
)

// wireIDs reads the stable wire type ID constants from wire.go, name to
// value, evaluated as the compiler does: a spec without a value repeats
// the one before it, and iota is the spec's index in its block. A
// retired ID stays in the block as _, which holds its value and is not
// returned.
func wireIDs(t *testing.T) map[string]uint64 {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]uint64)
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		var values []ast.Expr
		for iota, spec := range g.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Values) > 0 {
				values = vs.Values
			}
			for i, n := range vs.Names {
				if strings.HasPrefix(n.Name, "wire") {
					ids[n.Name] = evalWireID(t, values[i], uint64(iota))
				}
			}
		}
	}
	return ids
}

// evalWireID evaluates the constant expressions wire IDs are written in:
// integers, iota, orb.WireIDFirst, + and -.
func evalWireID(t *testing.T, e ast.Expr, iota uint64) uint64 {
	t.Helper()
	switch e := e.(type) {
	case *ast.ParenExpr:
		return evalWireID(t, e.X, iota)
	case *ast.Ident:
		if e.Name == "iota" {
			return iota
		}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && x.Name == "orb" && e.Sel.Name == "WireIDFirst" {
			return orb.WireIDFirst
		}
	case *ast.BasicLit:
		if n, err := strconv.ParseUint(e.Value, 0, 64); err == nil {
			return n
		}
	case *ast.BinaryExpr:
		x, y := evalWireID(t, e.X, iota), evalWireID(t, e.Y, iota)
		switch e.Op {
		case token.ADD:
			return x + y
		case token.SUB:
			return x - y
		}
	}
	t.Fatalf("wire.go: cannot evaluate wire ID expression %T", e)
	return 0
}

// TestWireRegistryComplete: every wire* ID constant has a fixture, and
// the fixture carrying that ID is the type the constant names (wireX
// is X), so a decoder registered under the wrong ID fails here. Each
// fixture decodes to the value type that encoded it, and a pointer to
// it encodes to the same bytes.
func TestWireRegistryComplete(t *testing.T) {
	ids := wireIDs(t)
	if len(ids) == 0 {
		t.Fatal("no wire ID constants found in wire.go")
	}
	seen := make(map[uint64]reflect.Type)
	for _, v := range fixtureMessages() {
		typ := reflect.TypeOf(v)
		b, err := orb.EncodePayloadBytes(v)
		if err != nil {
			t.Fatalf("%v: encode: %v", typ, err)
		}
		got, err := orb.DecodePayloadBytes(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if reflect.TypeOf(got) != typ {
			t.Errorf("%v decoded as %T", typ, got)
		}
		p := reflect.New(typ)
		p.Elem().Set(reflect.ValueOf(v))
		bp, err := orb.EncodePayloadBytes(p.Interface())
		if err != nil {
			t.Fatalf("*%v: encode: %v", typ, err)
		}
		if !bytes.Equal(bp, b) {
			t.Errorf("*%v encodes to different bytes than %v", typ, typ)
		}
		r := wire.Reader{B: b}
		seen[r.Uvarint()] = typ
	}
	names := make(map[uint64]string, len(ids))
	for name, id := range ids {
		if other, dup := names[id]; dup {
			t.Errorf("%s and %s are both ID %d", name, other, id)
		}
		names[id] = name
	}
	for name, id := range ids {
		typ, ok := seen[id]
		if !ok {
			t.Errorf("%s (ID %d) has no fixture in fixtureMessages", name, id)
			continue
		}
		if want := strings.TrimPrefix(name, "wire"); typ.Name() != want {
			t.Errorf("%s (ID %d) carries %v, want %s", name, id, typ, want)
		}
		delete(seen, id)
	}
	for id, typ := range seen {
		t.Errorf("fixture %v encodes under ID %d, which no wire* constant names", typ, id)
	}
}

// TestPayloadAllocBudget: a payload encodes in place — AppendPayload
// allocates nothing (1 when the codec copied the value to call a
// pointer method) — and decodes into the one value it returns (2 when
// the decoder's T escaped and was then boxed).
func TestPayloadAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	var arg any = ObjectArgs{Object: loid.LOID{Domain: "zone-1", Class: "Worker", Instance: 5}} // boxed once
	buf := make([]byte, 0, 64)
	enc := func() {
		var err error
		if buf, err = orb.AppendPayload(buf[:0], arg); err != nil {
			t.Fatal(err)
		}
	}
	enc()
	payload := append([]byte(nil), buf...)
	var r wire.Reader // reused, as the per-connection read loops do
	dec := func() {
		r.Reset(payload)
		if v, err := orb.DecodePayload(&r); err != nil || v != arg {
			t.Fatalf("decoded %v, %v; want %v", v, err, arg)
		}
	}
	dec() // intern the symbols
	if got := testing.AllocsPerRun(1000, enc); got != 0 {
		t.Errorf("AppendPayload(ObjectArgs): %.1f allocations, budget 0", got)
	}
	if got := testing.AllocsPerRun(1000, dec); got > 1 {
		t.Errorf("DecodePayload(ObjectArgs): %.1f allocations, budget 1", got)
	}
}
