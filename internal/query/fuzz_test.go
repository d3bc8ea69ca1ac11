package query

import (
	"strings"
	"testing"

	"legion/internal/attr"
)

// fuzzRecord is a representative host record for evaluating whatever the
// fuzzer manages to parse: every attribute kind appears, so comparisons,
// list builtins, and coercions all get exercised.
var fuzzRecord = attr.NewSet(
	attr.Pair{Name: "arch", Value: attr.String("x86")},
	attr.Pair{Name: "os", Value: attr.String("Linux")},
	attr.Pair{Name: "os_version", Value: attr.String("2.2")},
	attr.Pair{Name: "cpus", Value: attr.Int(4)},
	attr.Pair{Name: "load", Value: attr.Float(0.25)},
	attr.Pair{Name: "interactive", Value: attr.Bool(true)},
	attr.Pair{Name: "vaults", Value: attr.Strings("v1", "v2")},
)

// FuzzParse asserts the query front end is total: Parse never panics,
// and anything it accepts can be printed and evaluated without panicking
// (evaluation errors are fine — type mismatches are part of the
// language).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		`$arch == "x86"`,
		`$arch == "x86" and $os == "Linux"`,
		`$cpus >= 2 or $load < 0.5`,
		`not $interactive`,
		`not not not true`,
		`match("5\..*", $os_version)`,
		`contains($vaults, "v1")`,
		`defined($load) and len($vaults) > 1`,
		`(($cpus > 1) or (true)) and ($load <= 1.0)`,
		`match("(", $os)`,
		`$a = 1`,
		`"unterminated`,
		`$`,
		`f(,)`,
		strings.Repeat("not ", 64) + "true",
		strings.Repeat("(", 300) + "true" + strings.Repeat(")", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			if e != nil {
				t.Fatalf("Parse(%q) returned both expr and error %v", src, err)
			}
			return
		}
		if e == nil {
			t.Fatalf("Parse(%q) returned nil expr with nil error", src)
		}
		if e.String() == "" {
			t.Fatalf("Parse(%q): empty String()", src)
		}
		// Evaluation may fail (type errors, bad regexes, unknown
		// functions) but must never panic.
		_, _ = Eval(e, fuzzRecord)
	})
}

// TestParseDepthLimit pins the stack-exhaustion fix: pathological
// nesting parses up to maxDepth and is rejected — not crashed on —
// beyond it.
func TestParseDepthLimit(t *testing.T) {
	ok := strings.Repeat("(", maxDepth-1) + "true" + strings.Repeat(")", maxDepth-1)
	if _, err := Parse(ok); err != nil {
		t.Errorf("nesting just under the limit must parse: %v", err)
	}
	for _, src := range []string{
		strings.Repeat("(", 100000) + "true" + strings.Repeat(")", 100000),
		strings.Repeat("not ", 100000) + "true",
		strings.Repeat("len(", 100000) + "1" + strings.Repeat(")", 100000),
	} {
		_, err := Parse(src)
		if err == nil {
			t.Error("pathologically nested query must be rejected")
			continue
		}
		if !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("want depth-limit error, got: %v", err)
		}
	}
}
