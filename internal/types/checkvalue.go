package types

import (
	"fmt"

	"logres/internal/value"
)

// RefPolicy controls whether nil oids are legal in class-typed positions.
// Class equations accept nil references; associations must reference
// existing objects, so nil is illegal there (§2.1).
type RefPolicy int

// Reference policies.
const (
	NilAllowed RefPolicy = iota
	NilForbidden
)

// CheckValue verifies that v is a legal element of [t] (Appendix A,
// Definition 3), structurally: class-typed positions must hold oid
// references (or nil, policy permitting); domain names are expanded;
// constructors recurse. It does not check that referenced oids exist —
// that is the instance-level referential constraint.
func (s *Schema) CheckValue(t Type, v value.Value, policy RefPolicy) error {
	et, err := s.ExpandDomains(t)
	if err != nil {
		return err
	}
	return checkValue(et, v, policy, "")
}

// checkValue verifies v against the expanded type t; path locates v
// inside the value being checked, for the error text.
func checkValue(t Type, v value.Value, policy RefPolicy, path string) error {
	at := func() string {
		if path == "" {
			return ""
		}
		return " at " + path
	}
	switch x := t.(type) {
	case Elementary:
		var want value.Kind
		switch x.K {
		case KindInt:
			want = value.KindInt
		case KindReal:
			want = value.KindReal
		case KindString:
			want = value.KindString
		case KindBool:
			want = value.KindBool
		}
		if v.Kind() == want {
			return nil
		}
		// Integers are legal where reals are expected.
		if x.K == KindReal && v.Kind() == value.KindInt {
			return nil
		}
		return fmt.Errorf("types: expected %s, got %s %s%s", x.K, v.Kind(), v, at())
	case Named: // class reference position
		switch v.Kind() {
		case value.KindOID:
			if value.OID(v.(value.Ref)).IsNil() && policy == NilForbidden {
				return fmt.Errorf("types: nil oid illegal in association component of class %s%s", x.Name, at())
			}
			return nil
		case value.KindNull:
			if policy == NilForbidden {
				return fmt.Errorf("types: nil reference illegal in association component of class %s%s", x.Name, at())
			}
			return nil
		}
		return fmt.Errorf("types: expected reference to class %s, got %s %s%s", x.Name, v.Kind(), v, at())
	case Tuple:
		tv, ok := v.(value.Tuple)
		if !ok {
			return fmt.Errorf("types: expected tuple %s, got %s %s%s", x, v.Kind(), v, at())
		}
		for _, f := range x.Fields {
			fv, found := tv.Get(f.Label)
			if !found {
				return fmt.Errorf("types: tuple %s missing component %q%s", tv, f.Label, at())
			}
			sub := f.Label
			if path != "" {
				sub = path + "." + f.Label
			}
			if err := checkValue(f.Type, fv, policy, sub); err != nil {
				return err
			}
		}
		return nil
	case Set:
		sv, ok := v.(value.Set)
		if !ok {
			return fmt.Errorf("types: expected set %s, got %s %s%s", x, v.Kind(), v, at())
		}
		for _, e := range sv.Elems() {
			if err := checkValue(x.Elem, e, policy, path+"{}"); err != nil {
				return err
			}
		}
		return nil
	case Multiset:
		mv, ok := v.(value.Multiset)
		if !ok {
			return fmt.Errorf("types: expected multiset %s, got %s %s%s", x, v.Kind(), v, at())
		}
		for _, e := range mv.Elems() {
			if err := checkValue(x.Elem, e, policy, path+"[]"); err != nil {
				return err
			}
		}
		return nil
	case Sequence:
		qv, ok := v.(value.Sequence)
		if !ok {
			return fmt.Errorf("types: expected sequence %s, got %s %s%s", x, v.Kind(), v, at())
		}
		for _, e := range qv.Elems() {
			if err := checkValue(x.Elem, e, policy, path+"<>"); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("types: unknown type descriptor %T%s", t, at())
}
