package query

import (
	"testing"

	"legion/internal/attr"
)

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return e
}

func TestConjunctiveTerms(t *testing.T) {
	cases := []struct {
		src  string
		want []Term
	}{
		{`$arch == "mips"`, []Term{{"arch", "==", attr.String("mips")}}},
		{`$alive == true and $load < 0.5`, []Term{
			{"alive", "==", attr.Bool(true)},
			{"load", "<", attr.Float(0.5)},
		}},
		// Nested and-spine, literal-first operands flipped.
		{`($cpus >= 4 and 10 > $load) and match("IRIX", $os)`, []Term{
			{"cpus", ">=", attr.Int(4)},
			{"load", "<", attr.Int(10)},
		}},
		// or / not / calls contribute nothing.
		{`$a == 1 or $b == 2`, nil},
		{`not ($a == 1)`, nil},
		{`defined($a)`, nil},
		// Below an or, terms are not necessary conditions.
		{`$a == 1 and ($b == 2 or $c == 3)`, []Term{{"a", "==", attr.Int(1)}}},
		// attr-vs-attr is not indexable.
		{`$a == $b`, nil},
	}
	for _, tc := range cases {
		got := ConjunctiveTerms(mustParse(t, tc.src))
		if len(got) != len(tc.want) {
			t.Errorf("%q: terms = %+v, want %+v", tc.src, got, tc.want)
			continue
		}
		for i := range got {
			if got[i].Attr != tc.want[i].Attr || got[i].Op != tc.want[i].Op ||
				!got[i].Value.Equal(tc.want[i].Value) {
				t.Errorf("%q term %d: %+v, want %+v", tc.src, i, got[i], tc.want[i])
			}
		}
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b       attr.Value
		op         string
		result, ok bool
	}{
		{attr.Int(3), attr.Float(3.0), "==", true, true},
		{attr.Int(3), attr.Int(4), "!=", true, true},
		{attr.Float(0.2), attr.Float(0.5), "<", true, true},
		{attr.Int(7), attr.Float(0.5), "<=", false, true},
		{attr.String("IRIX"), attr.String("Linux"), "<", true, true},
		{attr.String("b"), attr.String("a"), ">=", true, true},
		// Kind mismatches cannot be ordered.
		{attr.String("x"), attr.Int(1), "<", false, false},
		{attr.Bool(true), attr.Int(1), ">", false, false},
		// ...but equality always answers.
		{attr.Bool(true), attr.Int(1), "==", false, true},
	}
	for _, tc := range cases {
		result, ok := CompareValues(tc.a, tc.b, tc.op)
		if result != tc.result || ok != tc.ok {
			t.Errorf("CompareValues(%v %s %v) = %v,%v want %v,%v",
				tc.a, tc.op, tc.b, result, ok, tc.result, tc.ok)
		}
	}
}

// TestConjunctiveTermsMatchEval: any record failing an extracted term
// must fail the whole expression — the soundness property index pruning
// relies on.
func TestConjunctiveTermsMatchEval(t *testing.T) {
	srcs := []string{
		`$arch == "mips" and $load < 0.5`,
		`$alive == true and ($zone == "uva" or $zone == "sdsc")`,
		`$cpus >= 2 and not ($os == "IRIX")`,
		`3 <= $cpus and defined($vaults)`,
	}
	recs := []*attr.Set{
		attr.NewSet(
			attr.Pair{Name: "arch", Value: attr.String("mips")}, attr.Pair{Name: "load", Value: attr.Float(0.1)},
			attr.Pair{Name: "alive", Value: attr.Bool(true)}, attr.Pair{Name: "zone", Value: attr.String("uva")},
			attr.Pair{Name: "cpus", Value: attr.Int(4)}, attr.Pair{Name: "os", Value: attr.String("Linux")},
			attr.Pair{Name: "vaults", Value: attr.List(attr.String("v1"))}),
		attr.NewSet(
			attr.Pair{Name: "arch", Value: attr.String("sparc")}, attr.Pair{Name: "load", Value: attr.Float(0.9)},
			attr.Pair{Name: "alive", Value: attr.Bool(false)}, attr.Pair{Name: "zone", Value: attr.String("mit")},
			attr.Pair{Name: "cpus", Value: attr.Int(1)}, attr.Pair{Name: "os", Value: attr.String("IRIX")}),
		attr.NewSet(), // everything missing
	}
	for _, src := range srcs {
		e := mustParse(t, src)
		terms := ConjunctiveTerms(e)
		for ri, rec := range recs {
			matched, err := Eval(e, rec)
			if err != nil || !matched {
				continue
			}
			// The record matches: every term must hold for it.
			for _, term := range terms {
				v, ok := rec.Lookup(term.Attr)
				if !ok {
					t.Errorf("%q rec %d matches but lacks term attr %s", src, ri, term.Attr)
					continue
				}
				if res, cmp := CompareValues(v, term.Value, term.Op); !cmp || !res {
					t.Errorf("%q rec %d matches but fails term %+v", src, ri, term)
				}
			}
		}
	}
}

// TestWithoutTerm: the conjunct behind ConjunctiveTerms(e)[i] leaves the
// and-spine and nothing else moves; the parsed expression is not
// modified.
func TestWithoutTerm(t *testing.T) {
	cases := []struct {
		src  string
		i    int
		want string // "" for nil: the term was the whole expression
	}{
		{`$a == 1`, 0, ""},
		{`$a == 1 and $b < 2`, 0, `($b < 2)`},
		{`$a == 1 and $b < 2`, 1, `($a == 1)`},
		{`($c >= 4 and 10 > $d) and match("x", $os)`, 1, `(($c >= 4) and match("x", $os))`},
		{`$a == 1 and ($b == 2 or $c == 3)`, 0, `(($b == 2) or ($c == 3))`},
		{`match("x", $os) and ($a == 1 and $b == "z")`, 1, `(match("x", $os) and ($a == 1))`},
	}
	for _, tc := range cases {
		e := mustParse(t, tc.src)
		before := e.String()
		got := WithoutTerm(e, tc.i)
		if e.String() != before {
			t.Errorf("%q: WithoutTerm modified the expression: %s", tc.src, e)
		}
		switch {
		case tc.want == "" && got != nil:
			t.Errorf("%q without term %d: %s, want nil", tc.src, tc.i, got)
		case tc.want != "" && (got == nil || got.String() != tc.want):
			t.Errorf("%q without term %d: %v, want %s", tc.src, tc.i, got, tc.want)
		}
	}
}

// TestWithoutTermMatchesEval: on every record where the removed ==
// conjunct holds, the reduced expression answers what the whole one
// does, an error included — the property a Collection relies on when it
// skips the conjunct its index bucket decided.
func TestWithoutTermMatchesEval(t *testing.T) {
	srcs := []string{
		`$zone == "z1"`,
		`$zone == "z1" and $load < 0.5`,
		`$load < 0.5 and $zone == "z1"`,
		`$zone == "z1" and $arch < 3`, // errors where $arch is a string
		`$arch < 3 and $zone == "z1"`,
		`($alive == true and $zone == "z1") and $load`, // non-bool operand
		`not ($load > 0.2) and "z1" == $zone`,
	}
	zone := attr.Pair{Name: "zone", Value: attr.String("z1")}
	recs := []*attr.Set{
		attr.NewSet(zone, attr.Pair{Name: "load", Value: attr.Float(0.1)},
			attr.Pair{Name: "arch", Value: attr.String("x86")}, attr.Pair{Name: "alive", Value: attr.Bool(true)}),
		attr.NewSet(zone, attr.Pair{Name: "load", Value: attr.Float(0.9)},
			attr.Pair{Name: "arch", Value: attr.Int(2)}, attr.Pair{Name: "alive", Value: attr.Bool(false)}),
		attr.NewSet(zone, attr.Pair{Name: "arch", Value: attr.Float(-0.0)}, attr.Pair{Name: "alive", Value: attr.Bool(true)}),
		attr.NewSet(zone),
	}
	for _, src := range srcs {
		e := mustParse(t, src)
		for i, term := range ConjunctiveTerms(e) {
			if term.Attr != "zone" || term.Op != "==" {
				continue
			}
			reduced := WithoutTerm(e, i)
			for ri, rec := range recs {
				want, wantErr := Eval(e, rec)
				got, gotErr := true, error(nil)
				if reduced != nil {
					got, gotErr = Eval(reduced, rec)
				}
				if got != want || (gotErr == nil) != (wantErr == nil) {
					t.Errorf("%q rec %d: reduced %v answers %v/%v, whole %v/%v", src, ri, reduced, got, gotErr, want, wantErr)
				}
			}
		}
	}
}
