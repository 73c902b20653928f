package engine

import (
	"fmt"

	"logres/internal/ast"
	"logres/internal/value"
)

// objBinding is the binding of a tuple variable ranging over a class: the
// object's oid together with its o-value projection, so that both identity
// (oid) and attribute values are available.
type objBinding struct {
	class string
	oid   value.OID
	tuple value.Tuple
}

// binding is one variable binding: either a plain value or an object.
type binding struct {
	val value.Value
	obj *objBinding
}

// coerce renders the binding as a value: objects coerce to their oid
// reference (object identity), as in the paper's equivalence between tuple
// variables and oid variables in association positions.
func (b binding) coerce() value.Value {
	if b.obj != nil {
		return value.Ref(b.obj.oid)
	}
	return b.val
}

// env is an immutable-by-convention variable environment; extend copies.
type env struct {
	m map[string]binding
}

func newEnv() *env { return &env{m: map[string]binding{}} }

func (e *env) clone() *env {
	n := make(map[string]binding, len(e.m)+2)
	for k, v := range e.m {
		n[k] = v
	}
	return &env{m: n}
}

func (e *env) lookup(name string) (binding, bool) {
	b, ok := e.m[name]
	return b, ok
}

func (e *env) bound(name string) bool {
	_, ok := e.m[name]
	return ok
}

// bindValue unifies name with a plain value. It reports whether the
// environment remains consistent.
func (e *env) bindValue(name string, v value.Value) bool {
	if prev, ok := e.m[name]; ok {
		return value.Equal(prev.coerce(), v)
	}
	e.m[name] = binding{val: v}
	return true
}

// bindObject unifies name with an object. A previous plain oid binding
// upgrades to an object binding so attribute values become reachable.
func (e *env) bindObject(name string, ob objBinding) bool {
	if prev, ok := e.m[name]; ok {
		if prev.obj != nil {
			return prev.obj.oid == ob.oid
		}
		if r, isRef := prev.val.(value.Ref); isRef {
			if value.OID(r) != ob.oid {
				return false
			}
			e.m[name] = binding{obj: &ob}
			return true
		}
		return false
	}
	e.m[name] = binding{obj: &ob}
	return true
}

// key renders a deterministic signature of the environment restricted to
// the given (sorted) variables, appended into one buffer; used as the
// valuation-domain identity b(r).
func (e *env) key(vars []string) string {
	var buf [value.KeyBufSize]byte
	out := buf[:0]
	for _, v := range vars {
		if b, ok := e.m[v]; ok {
			if len(out) > 0 {
				out = append(out, ';')
			}
			out = value.AppendKey(append(append(out, v...), '='), b.coerce())
		}
	}
	return string(out)
}

// evalTerm evaluates a term to a value. All variables must be bound;
// function applications read the data function's extension from F.
func evalTerm(t ast.Term, e *env, f *FactSet) (value.Value, error) {
	switch x := t.(type) {
	case ast.Const:
		return x.Val, nil
	case ast.Var:
		b, ok := e.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("engine: unbound variable %s", x.Name)
		}
		return b.coerce(), nil
	case ast.Wildcard:
		return nil, fmt.Errorf("engine: wildcard is not a value")
	case ast.FuncApp:
		return evalFuncApp(x, e, f)
	case ast.BinExpr:
		l, err := evalTerm(x.L, e, f)
		if err != nil {
			return nil, err
		}
		r, err := evalTerm(x.R, e, f)
		if err != nil {
			return nil, err
		}
		return evalArith(x.Op, l, r)
	case ast.TupleTerm:
		fields := make([]value.Field, len(x.Args))
		for i, a := range x.Args {
			v, err := evalTerm(a.Term, e, f)
			if err != nil {
				return nil, err
			}
			fields[i] = value.Field{Label: a.Label, Value: v}
		}
		return value.NewTuple(fields...), nil
	case ast.SetTerm:
		elems, err := evalElems(x.Elems, e, f)
		if err != nil {
			return nil, err
		}
		return value.NewSet(elems...), nil
	case ast.MultisetTerm:
		elems, err := evalElems(x.Elems, e, f)
		if err != nil {
			return nil, err
		}
		return value.NewMultiset(elems...), nil
	case ast.SeqTerm:
		elems, err := evalElems(x.Elems, e, f)
		if err != nil {
			return nil, err
		}
		return value.NewSequence(elems...), nil
	}
	return nil, fmt.Errorf("engine: cannot evaluate term %T", t)
}

func evalElems(ts []ast.Term, e *env, f *FactSet) ([]value.Value, error) {
	out := make([]value.Value, len(ts))
	for i, t := range ts {
		v, err := evalTerm(t, e, f)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalFuncApp evaluates a data-function application f(a) to the set of
// members recorded for argument a (the function's extension is the hidden
// association of (arg, member) facts).
func evalFuncApp(app ast.FuncApp, e *env, f *FactSet) (value.Value, error) {
	var argVal value.Value
	if len(app.Args) == 1 {
		v, err := evalTerm(app.Args[0], e, f)
		if err != nil {
			return nil, err
		}
		argVal = v
	} else if len(app.Args) > 1 {
		return nil, fmt.Errorf("engine: function %q applied to %d arguments", app.Name, len(app.Args))
	}
	var members []value.Value
	for _, fact := range f.Facts(app.Name) {
		if argVal != nil {
			got, ok := fact.Tuple.Get(FuncArgLabel)
			if !ok || !value.Equal(got, argVal) {
				continue
			}
		}
		if m, ok := fact.Tuple.Get(FuncMemberLabel); ok {
			members = append(members, m)
		}
	}
	return value.NewSet(members...), nil
}

// evalArith computes arithmetic; + also concatenates strings and merges
// collections of matching kinds.
func evalArith(op string, l, r value.Value) (value.Value, error) {
	if op == "+" {
		switch x := l.(type) {
		case value.Str:
			if y, ok := r.(value.Str); ok {
				return x + y, nil
			}
		case value.Set:
			if y, ok := r.(value.Set); ok {
				return x.Union(y), nil
			}
		case value.Sequence:
			if y, ok := r.(value.Sequence); ok {
				elems := append(append([]value.Value{}, x.Elems()...), y.Elems()...)
				return value.NewSequence(elems...), nil
			}
		}
	}
	li, lInt := l.(value.Int)
	ri, rInt := r.(value.Int)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("engine: division by zero")
			}
			return li / ri, nil
		case "mod":
			if ri == 0 {
				return nil, fmt.Errorf("engine: modulo by zero")
			}
			return li % ri, nil
		}
	}
	lf, lNum := numeric(l)
	rf, rNum := numeric(r)
	if lNum && rNum {
		switch op {
		case "+":
			return value.Real(lf + rf), nil
		case "-":
			return value.Real(lf - rf), nil
		case "*":
			return value.Real(lf * rf), nil
		case "/":
			if rf == 0 {
				return nil, fmt.Errorf("engine: division by zero")
			}
			return value.Real(lf / rf), nil
		}
	}
	return nil, fmt.Errorf("engine: cannot apply %q to %s and %s", op, l.Kind(), r.Kind())
}

func numeric(v value.Value) (float64, bool) {
	switch x := v.(type) {
	case value.Int:
		return float64(x), true
	case value.Real:
		return float64(x), true
	}
	return 0, false
}

// matchTerm unifies a pattern term against a value, extending e in place.
// Non-pattern subterms (function applications, arithmetic, collection
// literals) are evaluated and compared.
func matchTerm(t ast.Term, v value.Value, e *env, f *FactSet) (bool, error) {
	switch x := t.(type) {
	case ast.Var:
		return e.bindValue(x.Name, v), nil
	case ast.Wildcard:
		return true, nil
	case ast.Const:
		return value.Equal(x.Val, v), nil
	case ast.TupleTerm:
		tv, ok := v.(value.Tuple)
		if !ok {
			return false, nil
		}
		for i, a := range x.Args {
			var comp value.Value
			if a.Label == ast.SelfLabel || a.Label != "" {
				c, found := tv.Get(a.Label)
				if !found {
					return false, nil
				}
				comp = c
			} else {
				if i >= tv.Len() {
					return false, nil
				}
				comp = tv.Field(i).Value
			}
			ok, err := matchTerm(a.Term, comp, e, f)
			if err != nil || !ok {
				return ok, err
			}
		}
		return true, nil
	default:
		got, err := evalTerm(t, e, f)
		if err != nil {
			return false, err
		}
		return value.Equal(got, v), nil
	}
}

// isPattern reports whether a term can be matched against a value without
// its variables being bound first.
func isPattern(t ast.Term) bool {
	switch x := t.(type) {
	case ast.Var, ast.Wildcard, ast.Const:
		return true
	case ast.TupleTerm:
		for _, a := range x.Args {
			if !isPattern(a.Term) {
				return false
			}
		}
		return true
	}
	return false
}

// termVars collects the variable names of a term, in order.
func termVars(t ast.Term) []string {
	var out []string
	var walk func(ast.Term)
	walk = func(t ast.Term) {
		switch x := t.(type) {
		case ast.Var:
			out = append(out, x.Name)
		case ast.FuncApp:
			for _, a := range x.Args {
				walk(a)
			}
		case ast.BinExpr:
			walk(x.L)
			walk(x.R)
		case ast.TupleTerm:
			for _, a := range x.Args {
				walk(a.Term)
			}
		case ast.SetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.MultisetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.SeqTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		}
	}
	walk(t)
	return out
}

// evaluable reports whether all variables of t are in bound.
func evaluable(t ast.Term, bound map[string]bool) bool {
	if _, isWild := t.(ast.Wildcard); isWild {
		return false
	}
	for _, v := range termVars(t) {
		if !bound[v] {
			return false
		}
	}
	return true
}

// patternVars returns the variables a pattern would bind.
func patternVars(t ast.Term) []string {
	if !isPattern(t) {
		return nil
	}
	return termVars(t)
}
