package query

import (
	"fmt"
	"regexp"
	"sync"

	"legion/internal/attr"
)

// Record resolves $name attribute references during evaluation. A
// Collection's records satisfy it over their sorted pairs (attr.Lookup),
// as do *attr.Set and the map-based view returned by attr.FromPairs (via
// MapRecord).
type Record interface {
	Lookup(name string) (attr.Value, bool)
}

// MapRecord adapts a plain attribute map to the Record interface.
type MapRecord map[string]attr.Value

// Lookup implements Record.
func (m MapRecord) Lookup(name string) (attr.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// Func is an injectable query function. Implementations receive the
// record under evaluation (so injected functions can derive new
// description information from existing attributes — the paper's §3.2
// "function injection") and the evaluated argument values.
type Func func(rec Record, args []attr.Value) (attr.Value, error)

// Env is an evaluation environment: the record under test plus any
// injected functions. Envs are cheap to construct per record.
type Env struct {
	// Rec is the record the query runs against.
	Rec Record
	// Funcs maps injected function names to implementations. Injected
	// functions shadow built-ins of the same name, letting users refine
	// system behaviour (a Legion design goal).
	Funcs map[string]Func
}

// EvalError describes a type or resolution error during evaluation.
type EvalError struct {
	Expr string
	Msg  string
}

// Error implements the error interface.
func (e *EvalError) Error() string {
	return fmt.Sprintf("query: eval %s: %s", e.Expr, e.Msg)
}

func evalErrf(e Expr, format string, args ...any) error {
	return &EvalError{Expr: e.String(), Msg: fmt.Sprintf(format, args...)}
}

// Eval evaluates the expression against a record with no injected
// functions and requires a boolean result, the contract of a Collection
// query. An unresolvable attribute makes the enclosing comparison false
// rather than failing the whole query, so records simply missing a field
// do not match (mirroring database NULL semantics); genuine type errors
// are reported.
func Eval(e Expr, rec Record) (bool, error) {
	return EvalEnv(e, &Env{Rec: rec})
}

// EvalEnv is Eval with an explicit environment (injected functions).
func EvalEnv(e Expr, env *Env) (bool, error) {
	v, err := e.eval(env)
	if err != nil {
		if _, missing := err.(*missingAttrError); missing {
			return false, nil
		}
		return false, err
	}
	if v.Kind() != attr.KindBool {
		return false, evalErrf(e, "query result is %s, want bool", v.Kind())
	}
	return v.BoolVal(), nil
}

// missingAttrError marks evaluation that touched an absent attribute. It
// propagates to the nearest boolean context, which treats it as false.
type missingAttrError struct{ name string }

func (e *missingAttrError) Error() string {
	return fmt.Sprintf("query: attribute $%s not present in record", e.name)
}

func (e *literalExpr) eval(*Env) (attr.Value, error) { return e.val, nil }

func (e *attrExpr) eval(env *Env) (attr.Value, error) {
	if env.Rec == nil {
		return attr.Value{}, &missingAttrError{name: e.name}
	}
	v, ok := env.Rec.Lookup(e.name)
	if !ok {
		return attr.Value{}, &missingAttrError{name: e.name}
	}
	return v, nil
}

func (e *notExpr) eval(env *Env) (attr.Value, error) {
	v, err := e.sub.eval(env)
	if err != nil {
		if _, missing := err.(*missingAttrError); missing {
			// not(<missing>) is true: the subterm is false.
			return attr.Bool(true), nil
		}
		return attr.Value{}, err
	}
	if v.Kind() != attr.KindBool {
		return attr.Value{}, evalErrf(e, "operand of 'not' is %s, want bool", v.Kind())
	}
	return attr.Bool(!v.BoolVal()), nil
}

func (e *binaryExpr) eval(env *Env) (attr.Value, error) {
	switch e.op {
	case "and", "or":
		return e.evalLogical(env)
	default:
		return e.evalRelational(env)
	}
}

func (e *binaryExpr) evalLogical(env *Env) (attr.Value, error) {
	lb, err := boolOperand(e.lhs, env)
	if err != nil {
		return attr.Value{}, err
	}
	// Short-circuit.
	if e.op == "and" && !lb {
		return attr.Bool(false), nil
	}
	if e.op == "or" && lb {
		return attr.Bool(true), nil
	}
	rb, err := boolOperand(e.rhs, env)
	if err != nil {
		return attr.Value{}, err
	}
	return attr.Bool(rb), nil
}

// boolOperand evaluates a subexpression in boolean context; a missing
// attribute yields false.
func boolOperand(e Expr, env *Env) (bool, error) {
	v, err := e.eval(env)
	if err != nil {
		if _, missing := err.(*missingAttrError); missing {
			return false, nil
		}
		return false, err
	}
	if v.Kind() != attr.KindBool {
		return false, evalErrf(e, "boolean operand is %s, want bool", v.Kind())
	}
	return v.BoolVal(), nil
}

func (e *binaryExpr) evalRelational(env *Env) (attr.Value, error) {
	lv, err := e.lhs.eval(env)
	if err != nil {
		return attr.Value{}, err
	}
	rv, err := e.rhs.eval(env)
	if err != nil {
		return attr.Value{}, err
	}
	switch e.op {
	case "==":
		return attr.Bool(lv.Equal(rv)), nil
	case "!=":
		return attr.Bool(!lv.Equal(rv)), nil
	}
	// Ordering comparisons: numeric if both coerce, else lexical strings.
	if lf, ok := lv.AsFloat(); ok {
		rf, rok := rv.AsFloat()
		if !rok {
			return attr.Value{}, evalErrf(e, "cannot compare %s with %s", lv.Kind(), rv.Kind())
		}
		return attr.Bool(cmpOrder(e.op, compareFloat(lf, rf))), nil
	}
	if lv.Kind() == attr.KindString && rv.Kind() == attr.KindString {
		return attr.Bool(cmpOrder(e.op, compareString(lv.Str(), rv.Str()))), nil
	}
	return attr.Value{}, evalErrf(e, "cannot order %s against %s", lv.Kind(), rv.Kind())
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpOrder(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	default:
		panic("query: bad order op " + op)
	}
}

func (e *callExpr) eval(env *Env) (attr.Value, error) {
	// defined($attr) must observe attribute absence rather than have the
	// missing-attribute signal abort argument evaluation, so it is
	// handled before the generic call path.
	if e.name == "defined" && (env.Funcs == nil || env.Funcs["defined"] == nil) {
		if len(e.args) != 1 {
			return attr.Value{}, evalErrf(e, "defined wants 1 argument, got %d", len(e.args))
		}
		v, err := e.args[0].eval(env)
		if err != nil {
			if _, missing := err.(*missingAttrError); missing {
				return attr.Bool(false), nil
			}
			return attr.Value{}, err
		}
		return attr.Bool(v.IsValid()), nil
	}
	if env.Funcs != nil {
		if f, ok := env.Funcs[e.name]; ok {
			return e.call(env, f)
		}
	}
	if f, ok := builtins[e.name]; ok {
		return e.call(env, f)
	}
	return attr.Value{}, evalErrf(e, "unknown function %q", e.name)
}

func (e *callExpr) call(env *Env, f Func) (attr.Value, error) {
	args := make([]attr.Value, len(e.args))
	for i, a := range e.args {
		v, err := a.eval(env)
		if err != nil {
			return attr.Value{}, err
		}
		args[i] = v
	}
	v, err := f(env.Rec, args)
	if err != nil {
		return attr.Value{}, evalErrf(e, "%v", err)
	}
	return v, nil
}

// builtins is the fixed function table available to every query.
var builtins = map[string]Func{
	"match":    builtinMatch,
	"contains": builtinContains,
	"defined":  builtinDefined,
	"len":      builtinLen,
}

// regexCache caches compiled patterns; Collections evaluate the same
// query against thousands of records, so compilation must not repeat per
// record.
var regexCache sync.Map // string -> *regexp.Regexp

func compileCached(pat string) (*regexp.Regexp, error) {
	if re, ok := regexCache.Load(pat); ok {
		return re.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, err
	}
	regexCache.Store(pat, re)
	return re, nil
}

// builtinMatch implements match(regex, subject). Per the paper's footnote
// 5 the first argument is the regular expression; the Unix regexp()
// semantics of "pattern found anywhere in subject" is what Go's
// Regexp.MatchString provides.
func builtinMatch(_ Record, args []attr.Value) (attr.Value, error) {
	if len(args) != 2 {
		return attr.Value{}, fmt.Errorf("match wants 2 arguments, got %d", len(args))
	}
	if args[0].Kind() != attr.KindString || args[1].Kind() != attr.KindString {
		return attr.Value{}, fmt.Errorf("match wants string arguments, got %s, %s",
			args[0].Kind(), args[1].Kind())
	}
	re, err := compileCached(args[0].Str())
	if err != nil {
		return attr.Value{}, fmt.Errorf("bad pattern: %v", err)
	}
	return attr.Bool(re.MatchString(args[1].Str())), nil
}

// builtinContains implements contains(list, elem): true when elem (by
// semantic equality) is an element of list. Useful for list-valued
// attributes like a Host's compatible vaults or refused domains.
func builtinContains(_ Record, args []attr.Value) (attr.Value, error) {
	if len(args) != 2 {
		return attr.Value{}, fmt.Errorf("contains wants 2 arguments, got %d", len(args))
	}
	if args[0].Kind() != attr.KindList {
		return attr.Value{}, fmt.Errorf("contains wants a list first argument, got %s", args[0].Kind())
	}
	for i := 0; i < args[0].Len(); i++ {
		if args[0].At(i).Equal(args[1]) {
			return attr.Bool(true), nil
		}
	}
	return attr.Bool(false), nil
}

// builtinDefined implements defined($attr): true when the record has the
// attribute. The interesting case — the attribute being absent — is
// handled directly in callExpr.eval, which intercepts the missing-
// attribute signal before it aborts argument evaluation; this entry only
// exists so name resolution and shadowing by injected functions work
// uniformly.
func builtinDefined(_ Record, args []attr.Value) (attr.Value, error) {
	if len(args) != 1 {
		return attr.Value{}, fmt.Errorf("defined wants 1 argument, got %d", len(args))
	}
	return attr.Bool(args[0].IsValid()), nil
}

// builtinLen implements len(x): list length or string byte length.
func builtinLen(_ Record, args []attr.Value) (attr.Value, error) {
	if len(args) != 1 {
		return attr.Value{}, fmt.Errorf("len wants 1 argument, got %d", len(args))
	}
	switch args[0].Kind() {
	case attr.KindList:
		return attr.Int(int64(args[0].Len())), nil
	case attr.KindString:
		return attr.Int(int64(len(args[0].Str()))), nil
	default:
		return attr.Value{}, fmt.Errorf("len wants a list or string, got %s", args[0].Kind())
	}
}
