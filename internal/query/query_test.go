package query

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"legion/internal/attr"
)

func rec(pairs ...attr.Pair) Record {
	return attr.NewSet(pairs...)
}

func mustEval(t *testing.T, src string, r Record) bool {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	b, err := Eval(e, r)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return b
}

// TestPaperIRIXExample reproduces the query from §3.2: "to find all Hosts
// running with the IRIX operating system version 5.x". Written in the
// footnote-5 canonical argument order (pattern first).
func TestPaperIRIXExample(t *testing.T) {
	q := `match("IRIX", $host_os_name) and match("5\..*", $host_os_version)`
	irix5 := rec(
		attr.Pair{Name: "host_os_name", Value: attr.String("IRIX")},
		attr.Pair{Name: "host_os_version", Value: attr.String("5.3")},
	)
	irix6 := rec(
		attr.Pair{Name: "host_os_name", Value: attr.String("IRIX")},
		attr.Pair{Name: "host_os_version", Value: attr.String("6.5")},
	)
	linux := rec(
		attr.Pair{Name: "host_os_name", Value: attr.String("Linux")},
		attr.Pair{Name: "host_os_version", Value: attr.String("5.1")},
	)
	if !mustEval(t, q, irix5) {
		t.Error("IRIX 5.3 should match")
	}
	if mustEval(t, q, irix6) {
		t.Error("IRIX 6.5 should not match")
	}
	if mustEval(t, q, linux) {
		t.Error("Linux 5.1 should not match")
	}
}

func TestComparisons(t *testing.T) {
	r := rec(
		attr.Pair{Name: "load", Value: attr.Float(0.5)},
		attr.Pair{Name: "mem", Value: attr.Int(1024)},
		attr.Pair{Name: "arch", Value: attr.String("sparc")},
		attr.Pair{Name: "up", Value: attr.Bool(true)},
	)
	cases := []struct {
		q    string
		want bool
	}{
		{`$load < 1.0`, true},
		{`$load > 1.0`, false},
		{`$load <= 0.5`, true},
		{`$load >= 0.5`, true},
		{`$load == 0.5`, true},
		{`$load != 0.5`, false},
		{`$mem > 512`, true},
		{`$mem == 1024`, true},
		{`$mem < $load`, false},
		{`$arch == "sparc"`, true},
		{`$arch != "x86"`, true},
		{`$arch < "t"`, true},
		{`$arch > "t"`, false},
		{`$up`, true},
		{`$up == true`, true},
		{`$mem = 1024`, true}, // single '=' accepted as equality
		{`0.5 == $load`, true},
		{`1024.0 == $mem`, true}, // cross int/float equality
	}
	for _, c := range cases {
		if got := mustEval(t, c.q, r); got != c.want {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBooleanCombinations(t *testing.T) {
	r := rec(
		attr.Pair{Name: "a", Value: attr.Bool(true)},
		attr.Pair{Name: "b", Value: attr.Bool(false)},
	)
	cases := []struct {
		q    string
		want bool
	}{
		{`$a and $b`, false},
		{`$a or $b`, true},
		{`not $b`, true},
		{`not $a`, false},
		{`not not $a`, true},
		{`$a and not $b`, true},
		{`($a or $b) and $a`, true},
		// Precedence: not > and > or.
		{`$b or $a and $a`, true},
		{`not $b and $a`, true},
		{`true or false`, true},
		{`true and false`, false},
	}
	for _, c := range cases {
		if got := mustEval(t, c.q, r); got != c.want {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestMissingAttributeSemantics(t *testing.T) {
	r := rec(attr.Pair{Name: "present", Value: attr.Int(1)})
	cases := []struct {
		q    string
		want bool
	}{
		// A comparison touching a missing attribute is false...
		{`$absent == 1`, false},
		{`$absent < 5`, false},
		// ...its negation is true (the term is false, not an error)...
		{`not ($absent == 1)`, true},
		// ...and boolean combinations degrade gracefully.
		{`$present == 1 or $absent == 1`, true},
		{`$present == 1 and $absent == 1`, false},
		{`defined($present)`, true},
		{`defined($absent)`, false},
		{`not defined($absent)`, true},
	}
	for _, c := range cases {
		if got := mustEval(t, c.q, r); got != c.want {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestBuiltinContainsAndLen(t *testing.T) {
	r := rec(
		attr.Pair{Name: "vaults", Value: attr.Strings("v1", "v2")},
		attr.Pair{Name: "name", Value: attr.String("abc")},
	)
	cases := []struct {
		q    string
		want bool
	}{
		{`contains($vaults, "v1")`, true},
		{`contains($vaults, "v9")`, false},
		{`len($vaults) == 2`, true},
		{`len($name) == 3`, true},
		{`len($name) > len($vaults)`, true},
	}
	for _, c := range cases {
		if got := mustEval(t, c.q, r); got != c.want {
			t.Errorf("%q = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestFunctionInjection(t *testing.T) {
	// §3.2: users can install code to compute new description information
	// from existing attributes — the NWS motivation.
	r := rec(attr.Pair{Name: "load_history", Value: attr.List(
		attr.Float(0.2), attr.Float(0.4), attr.Float(0.6))})
	env := &Env{
		Rec: r,
		Funcs: map[string]Func{
			"forecast": func(rec Record, args []attr.Value) (attr.Value, error) {
				hist, ok := rec.Lookup("load_history")
				if !ok {
					return attr.Value{}, errors.New("no history")
				}
				var sum float64
				for i := 0; i < hist.Len(); i++ {
					f, _ := hist.At(i).AsFloat()
					sum += f
				}
				return attr.Float(sum / float64(hist.Len())), nil
			},
		},
	}
	e := MustParse(`forecast() < 0.5`)
	got, err := EvalEnv(e, env)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("forecast() = 0.4 should be < 0.5")
	}
}

func TestInjectionShadowsBuiltin(t *testing.T) {
	env := &Env{
		Rec: rec(),
		Funcs: map[string]Func{
			"match": func(_ Record, _ []attr.Value) (attr.Value, error) {
				return attr.Bool(true), nil
			},
		},
	}
	got, err := EvalEnv(MustParse(`match("x", "y")`), env)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("injected match should shadow builtin (builtin would be false)")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"$",
		"$1bad",
		`"unterminated`,
		"1 ==",
		"== 1",
		"(1 == 1",
		"1 == 1)",
		"foo",
		"foo(",
		"foo(1,",
		"foo(1 2)",
		"and",
		"not",
		"1 === 1",
		"3.",
		"$a ! $b",
		"#",
		"$a == 1 extra",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q): error %v is not *SyntaxError", s, err)
			}
		}
	}
}

func TestEvalErrors(t *testing.T) {
	r := rec(
		attr.Pair{Name: "s", Value: attr.String("x")},
		attr.Pair{Name: "n", Value: attr.Int(1)},
		attr.Pair{Name: "b", Value: attr.Bool(true)},
	)
	bad := []string{
		`$s < $n`,           // string vs number ordering
		`$b < $b`,           // bool ordering
		`$s and $b`,         // non-bool logical operand
		`not $n`,            // non-bool not
		`$n`,                // non-bool top level
		`match($n, "x")`,    // non-string match arg
		`match("(", "x")`,   // bad regex
		`match("x")`,        // arity
		`contains($s, "x")`, // non-list contains
		`len($n)`,           // bad len operand
		`nosuchfn(1)`,       // unknown function
		`defined($s, $n)`,   // defined arity
	}
	for _, s := range bad {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if _, err := Eval(e, r); err == nil {
			t.Errorf("Eval(%q): want error", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		`match("IRIX", $host_os_name) and match("5\..*", $host_os_name)`,
		`$load < 0.5 or not defined($reserved)`,
		`contains($vaults, "v1") and len($vaults) >= 2`,
		`not ($a == 1 and $b == 2)`,
		`true or false and not false`,
	}
	r := rec(
		attr.Pair{Name: "host_os_name", Value: attr.String("IRIX 5.3")},
		attr.Pair{Name: "load", Value: attr.Float(0.3)},
		attr.Pair{Name: "vaults", Value: attr.Strings("v1", "v2")},
		attr.Pair{Name: "a", Value: attr.Int(1)},
		attr.Pair{Name: "b", Value: attr.Int(2)},
	)
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, e1.String(), err)
		}
		b1, err1 := Eval(e1, r)
		b2, err2 := Eval(e2, r)
		if err1 != nil || err2 != nil || b1 != b2 {
			t.Errorf("round trip of %q changed meaning: %v/%v vs %v/%v",
				src, b1, err1, b2, err2)
		}
	}
}

// TestNumericLiteralParsingProperty: integer literals survive parse/eval
// against an equal attribute.
func TestNumericLiteralParsingProperty(t *testing.T) {
	f := func(n int32) bool {
		r := rec(attr.Pair{Name: "x", Value: attr.Int(int64(n))})
		e, err := Parse("$x == " + attr.Int(int64(n)).String())
		if err != nil {
			return false
		}
		got, err := Eval(e, r)
		return err == nil && got
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanics: arbitrary input must produce a value or an
// error, never a panic.
func TestParserNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Parse(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// A few adversarial inputs beyond random generation.
	for _, s := range []string{
		strings.Repeat("(", 10000),
		strings.Repeat("not ", 1000) + "true",
		`match(` + strings.Repeat(`match(`, 100) + `"x"`,
	} {
		Parse(s)
	}
}

func TestStringEscapes(t *testing.T) {
	r := rec(attr.Pair{Name: "s", Value: attr.String("a\"b\nc\td")})
	if !mustEval(t, `$s == "a\"b\nc\td"`, r) {
		t.Error("escape decoding failed")
	}
	// Regex escapes pass through so patterns need no double escaping.
	if !mustEval(t, `match("a\d+z", $x) or true`, rec()) {
		t.Error("regex escape handling")
	}
}

func TestNegativeNumbers(t *testing.T) {
	r := rec(attr.Pair{Name: "x", Value: attr.Int(-5)})
	if !mustEval(t, `$x == -5`, r) {
		t.Error("-5 literal")
	}
	if !mustEval(t, `$x < -1.5`, r) {
		t.Error("-1.5 literal")
	}
}

func TestEmptyArgFunctionCall(t *testing.T) {
	env := &Env{Rec: rec(), Funcs: map[string]Func{
		"always": func(_ Record, args []attr.Value) (attr.Value, error) {
			if len(args) != 0 {
				return attr.Value{}, errors.New("want no args")
			}
			return attr.Bool(true), nil
		},
	}}
	got, err := EvalEnv(MustParse("always()"), env)
	if err != nil || !got {
		t.Errorf("always() = %v, %v", got, err)
	}
}

func TestConcurrentEvalSharedExpr(t *testing.T) {
	e := MustParse(`match("IRIX", $os) and $load < 0.5`)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			r := rec(
				attr.Pair{Name: "os", Value: attr.String("IRIX")},
				attr.Pair{Name: "load", Value: attr.Float(float64(g) / 16)},
			)
			for i := 0; i < 500; i++ {
				want := float64(g)/16 < 0.5
				got, err := Eval(e, r)
				if err != nil || got != want {
					t.Errorf("concurrent eval: %v, %v", got, err)
					break
				}
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestErrorMessages(t *testing.T) {
	_, err := Parse("(((")
	var se *SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Error(), "syntax error") {
		t.Errorf("syntax error text: %v", err)
	}
	e := MustParse(`$n and true`)
	_, err = Eval(e, rec(attr.Pair{Name: "n", Value: attr.Int(1)}))
	var ee *EvalError
	if !errors.As(err, &ee) || !strings.Contains(ee.Error(), "eval") {
		t.Errorf("eval error text: %v", err)
	}
	// missingAttrError has a message too (internal but reachable via
	// top-level non-boolean result... exercise through Error()).
	me := &missingAttrError{name: "gone"}
	if !strings.Contains(me.Error(), "$gone") {
		t.Errorf("missing attr error: %v", me)
	}
}

func TestStringOrderingComparisons(t *testing.T) {
	r := rec(attr.Pair{Name: "s", Value: attr.String("mm")})
	cases := map[string]bool{
		`$s < "zz"`:  true,
		`$s > "zz"`:  false,
		`$s <= "mm"`: true,
		`$s >= "mm"`: true,
		`$s > "aa"`:  true,
		`$s < "aa"`:  false,
	}
	for q, want := range cases {
		if got := mustEval(t, q, r); got != want {
			t.Errorf("%q = %v want %v", q, got, want)
		}
	}
}

func TestDefinedShadowedByInjection(t *testing.T) {
	// An injected "defined" takes over completely (generic call path).
	env := &Env{Rec: rec(), Funcs: map[string]Func{
		"defined": func(_ Record, args []attr.Value) (attr.Value, error) {
			return attr.Bool(true), nil
		},
	}}
	got, err := EvalEnv(MustParse(`defined("anything")`), env)
	if err != nil || !got {
		t.Errorf("shadowed defined: %v %v", got, err)
	}
	// The builtin defined() also works on non-attribute expressions via
	// the special path (validity of the evaluated value).
	got, err = EvalEnv(MustParse(`defined(1)`), &Env{Rec: rec()})
	if err != nil || !got {
		t.Errorf("defined(1): %v %v", got, err)
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokKind{tokEOF, tokString, tokNumber, tokIdent, tokAttr,
		tokLParen, tokRParen, tokComma, tokOp}
	for _, k := range kinds {
		if k.String() == "" || k.String() == "unknown token" {
			t.Errorf("kind %d stringifies to %q", int(k), k.String())
		}
	}
	if tokKind(99).String() != "unknown token" {
		t.Error("unknown kind")
	}
}
