package query

import "legion/internal/attr"

// Term is one indexable conjunct of a query: an attribute compared
// against a literal ($attr op literal, in either operand order — the
// stored Op always reads attribute-first). Collections use Terms to
// prune the candidate set through an inverted attribute index before
// evaluating the full expression.
type Term struct {
	Attr  string
	Op    string // "==", "!=", "<", "<=", ">", ">="
	Value attr.Value
}

// ConjunctiveTerms extracts the attribute-vs-literal comparisons that
// every matching record must satisfy. Only the top-level "and" spine is
// walked: a term found there is a necessary condition for the whole
// expression (a record failing it cannot match, because the evaluator
// treats a false or missing-attribute conjunct as falsifying the
// conjunction), so filtering candidates by any such term is sound.
// Subtrees under "or", "not", or function calls contribute nothing.
func ConjunctiveTerms(e Expr) []Term {
	var out []Term
	collectConjuncts(e, &out)
	return out
}

func collectConjuncts(e Expr, out *[]Term) {
	if b, ok := e.(*binaryExpr); ok && b.op == "and" {
		collectConjuncts(b.lhs, out)
		collectConjuncts(b.rhs, out)
		return
	}
	if t, ok := asTerm(e); ok {
		*out = append(*out, t)
	}
}

// asTerm reads e as "$attr op literal" or "literal op $attr".
func asTerm(e Expr) (Term, bool) {
	b, ok := e.(*binaryExpr)
	if !ok || b.op == "and" || b.op == "or" {
		return Term{}, false
	}
	if a, ok := b.lhs.(*attrExpr); ok {
		if l, ok := b.rhs.(*literalExpr); ok {
			return Term{Attr: a.name, Op: b.op, Value: l.val}, true
		}
		return Term{}, false
	}
	if l, ok := b.lhs.(*literalExpr); ok {
		if a, ok := b.rhs.(*attrExpr); ok {
			return Term{Attr: a.name, Op: flipOp(b.op), Value: l.val}, true
		}
	}
	return Term{}, false
}

// WithoutTerm returns e with the conjunct that ConjunctiveTerms(e)[i]
// came from taken out of the top-level "and" spine, or nil when that
// conjunct is the whole expression (every record matches). e itself is
// not modified. The result is equivalent to e — same answer, and an
// error exactly when e errors — for every record on which the conjunct
// is true without error: "and" evaluates its operands in boolean
// context, where "true and x" and "x and true" both answer what x does.
// A Collection uses it for the == conjunct whose index bucket supplied
// the candidates.
func WithoutTerm(e Expr, i int) Expr {
	out, _ := withoutTerm(e, &i)
	return out
}

// withoutTerm walks e's spine in collectConjuncts' order, counting
// terms down in *i, and reports whether it removed the one at zero.
func withoutTerm(e Expr, i *int) (Expr, bool) {
	if b, ok := e.(*binaryExpr); ok && b.op == "and" {
		if lhs, done := withoutTerm(b.lhs, i); done {
			if lhs == nil {
				return b.rhs, true
			}
			return &binaryExpr{op: "and", lhs: lhs, rhs: b.rhs}, true
		}
		if rhs, done := withoutTerm(b.rhs, i); done {
			if rhs == nil {
				return b.lhs, true
			}
			return &binaryExpr{op: "and", lhs: b.lhs, rhs: rhs}, true
		}
		return e, false
	}
	if _, ok := asTerm(e); ok {
		if *i == 0 {
			return nil, true
		}
		*i--
	}
	return e, false
}

// flipOp rewrites "literal op $attr" as "$attr flipOp(op) literal".
func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default: // == and != are symmetric
		return op
	}
}

// CompareValues reports whether "a op b" holds under the evaluator's
// relational semantics: semantic equality for == and !=, numeric order
// when both values coerce to float, lexical order for string pairs.
// comparable is false when the kinds cannot be ordered — evaluating such
// a comparison against a record errors, so the record cannot match.
func CompareValues(a, b attr.Value, op string) (result, comparable bool) {
	switch op {
	case "==":
		return a.Equal(b), true
	case "!=":
		return !a.Equal(b), true
	}
	if af, ok := a.AsFloat(); ok {
		bf, ok := b.AsFloat()
		if !ok {
			return false, false
		}
		return cmpOrder(op, compareFloat(af, bf)), true
	}
	if a.Kind() == attr.KindString && b.Kind() == attr.KindString {
		return cmpOrder(op, compareString(a.Str(), b.Str())), true
	}
	return false, false
}
