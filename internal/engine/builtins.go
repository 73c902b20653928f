package engine

import (
	"fmt"

	"logres/internal/value"
)

// Built-in predicates (§3.1). Built-ins are untyped; their arguments must
// be bound by ordinary literals (enforced by the body-ordering pass). They
// do not add expressive power but make programs far more concise.
//
// Conventions follow Definition 6: for the three-argument set operations
// the LAST argument is the result, e.g. union(X, Y, Z) holds iff
// Z = X ∪ Y.

func (c *evalCtx) evalBuiltin(l resolvedLit, e *env, yield func(*env) error) error {
	switch l.pred {
	case "member":
		return c.builtinMember(l, e, yield)
	case "union", "intersection", "difference", "append", "nth":
		return c.builtinTernary(l, e, yield)
	case "count", "sum", "min", "max", "avg", "length":
		return c.builtinAggregate(l, e, yield)
	}
	return fmt.Errorf("engine: unknown builtin %q", l.pred)
}

// collectionElems returns the elements of any collection value.
func collectionElems(v value.Value) ([]value.Value, error) {
	switch x := v.(type) {
	case value.Set:
		return x.Elems(), nil
	case value.Multiset:
		return x.Elems(), nil
	case value.Sequence:
		return x.Elems(), nil
	}
	return nil, fmt.Errorf("engine: expected a collection, got %s", v.Kind())
}

func (c *evalCtx) builtinMember(l resolvedLit, e *env, yield func(*env) error) error {
	coll, err := evalTerm(l.args[1], e, c.f)
	if err != nil {
		return err
	}
	elems, err := collectionElems(coll)
	if err != nil {
		return err
	}
	if l.negated {
		x, err := evalTerm(l.args[0], e, c.f)
		if err != nil {
			return err
		}
		for _, el := range elems {
			if value.Equal(el, x) {
				return nil
			}
		}
		return yield(e)
	}
	m := e.mark()
	for _, el := range elems {
		ok, err := matchTerm(l.args[0], el, e, c.f)
		if err == nil && ok {
			err = yield(e)
		}
		e.undo(m)
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *evalCtx) builtinTernary(l resolvedLit, e *env, yield func(*env) error) error {
	a, err := evalTerm(l.args[0], e, c.f)
	if err != nil {
		return err
	}
	b, err := evalTerm(l.args[1], e, c.f)
	if err != nil {
		return err
	}
	var result value.Value
	switch l.pred {
	case "union":
		result, err = unionValues(a, b)
	case "intersection":
		result, err = intersectionValues(a, b)
	case "difference":
		result, err = differenceValues(a, b)
	case "append":
		result, err = appendValue(a, b)
	case "nth":
		result, err = nthValue(a, b)
		if err == nil && result == nil {
			return nil // index out of range: no valuation
		}
	}
	if err != nil {
		return err
	}
	if l.negated {
		got, err := evalTerm(l.args[2], e, c.f)
		if err != nil {
			return err
		}
		if !value.Equal(got, result) {
			return yield(e)
		}
		return nil
	}
	return c.unifyYield(l.args[2], result, e, yield)
}

func unionValues(a, b value.Value) (value.Value, error) {
	switch x := a.(type) {
	case value.Set:
		if y, ok := b.(value.Set); ok {
			return x.Union(y), nil
		}
	case value.Multiset:
		if y, ok := b.(value.Multiset); ok {
			elems := append(append([]value.Value{}, x.Elems()...), y.Elems()...)
			return value.NewMultiset(elems...), nil
		}
	case value.Sequence:
		if y, ok := b.(value.Sequence); ok {
			elems := append(append([]value.Value{}, x.Elems()...), y.Elems()...)
			return value.NewSequence(elems...), nil
		}
	}
	return nil, fmt.Errorf("engine: union on incompatible collections %s and %s", a.Kind(), b.Kind())
}

func intersectionValues(a, b value.Value) (value.Value, error) {
	x, okA := a.(value.Set)
	y, okB := b.(value.Set)
	if !okA || !okB {
		return nil, fmt.Errorf("engine: intersection needs sets, got %s and %s", a.Kind(), b.Kind())
	}
	return x.Intersect(y), nil
}

func differenceValues(a, b value.Value) (value.Value, error) {
	x, okA := a.(value.Set)
	y, okB := b.(value.Set)
	if !okA || !okB {
		return nil, fmt.Errorf("engine: difference needs sets, got %s and %s", a.Kind(), b.Kind())
	}
	return x.Diff(y), nil
}

// appendValue adds one element to a collection: append(S, E, S') with
// S' = S ∪ {E} for sets, additive for multisets, and at-the-end for
// sequences.
func appendValue(coll, elem value.Value) (value.Value, error) {
	switch x := coll.(type) {
	case value.Set:
		return x.Add(elem), nil
	case value.Multiset:
		return x.Add(elem), nil
	case value.Sequence:
		return x.Append(elem), nil
	}
	return nil, fmt.Errorf("engine: append needs a collection, got %s", coll.Kind())
}

// nthValue returns the i-th (1-based) element of a sequence, or nil when
// out of range.
func nthValue(coll, idx value.Value) (value.Value, error) {
	q, ok := coll.(value.Sequence)
	if !ok {
		return nil, fmt.Errorf("engine: nth needs a sequence, got %s", coll.Kind())
	}
	i, ok := idx.(value.Int)
	if !ok {
		return nil, fmt.Errorf("engine: nth index must be an integer, got %s", idx.Kind())
	}
	if i < 1 || int(i) > q.Len() {
		return nil, nil
	}
	return q.At(int(i) - 1), nil
}

func (c *evalCtx) builtinAggregate(l resolvedLit, e *env, yield func(*env) error) error {
	coll, err := evalTerm(l.args[0], e, c.f)
	if err != nil {
		return err
	}
	elems, err := collectionElems(coll)
	if err != nil {
		return err
	}
	var result value.Value
	switch l.pred {
	case "count", "length":
		result = value.Int(len(elems))
	case "sum":
		allInt := true
		var fsum float64
		var isum int64
		for _, el := range elems {
			f, ok := numeric(el)
			if !ok {
				return fmt.Errorf("engine: sum over non-numeric element %s", el)
			}
			fsum += f
			if i, isInt := el.(value.Int); isInt {
				isum += int64(i)
			} else {
				allInt = false
			}
		}
		if allInt {
			result = value.Int(isum)
		} else {
			result = value.Real(fsum)
		}
	case "min", "max":
		if len(elems) == 0 {
			return nil // no valuation on empty input
		}
		best := elems[0]
		for _, el := range elems[1:] {
			cmp := value.Compare(el, best)
			if (l.pred == "min" && cmp < 0) || (l.pred == "max" && cmp > 0) {
				best = el
			}
		}
		result = best
	case "avg":
		if len(elems) == 0 {
			return nil
		}
		var fsum float64
		for _, el := range elems {
			f, ok := numeric(el)
			if !ok {
				return fmt.Errorf("engine: avg over non-numeric element %s", el)
			}
			fsum += f
		}
		result = value.Real(fsum / float64(len(elems)))
	}
	if l.negated {
		got, err := evalTerm(l.args[1], e, c.f)
		if err != nil {
			return err
		}
		if !value.Equal(got, result) {
			return yield(e)
		}
		return nil
	}
	return c.unifyYield(l.args[1], result, e, yield)
}
