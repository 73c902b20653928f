package instance

import (
	"errors"
	"fmt"
	"slices"

	"logres/internal/types"
	"logres/internal/value"
)

// Membership reports oid ∈ π(class) for a canonical class name: the
// lookup every reference check of Definition 4 resolves through.
type Membership func(class string, oid value.OID) bool

// Store is the read side of an instance that the Definition 4 audit
// walks: an Instance, or a derived fact set read in place.
type Store interface {
	// Member reports oid ∈ π(class), for a canonical class name.
	Member(class string, oid value.OID) bool
	// EachObject calls fn with the oids of π(class) in ascending order,
	// until fn returns false.
	EachObject(class string, fn func(value.OID) bool)
	// OValue appends to buf the tuples whose ⊕ composition, left to
	// right, is ν(oid), and returns the extended buf: none when the oid
	// has no o-value.
	OValue(oid value.OID, buf []value.Tuple) []value.Tuple
	// EachTuple calls fn with the tuples of ρ(assoc) in key order, until
	// fn returns false.
	EachTuple(assoc string, fn func(value.Tuple) bool)
}

// CheckConsistency verifies the legality conditions of Definition 4
// (Audit) with the schema's compiled check.
func (in *Instance) CheckConsistency() error { return Audit(in.schema.Checks(), (*mapStore)(in)) }

// Audit verifies the legality conditions of Definition 4 over the
// instance st holds, with the schema's compiled check ck:
//
//	(a) if C isa C' then π(C) ⊆ π(C');
//	(b) oids shared by two classes imply a common ancestor (the oid
//	    universe is partitioned into disjoint hierarchies);
//	(ν) the projection of each o-value on its class's effective type is a
//	    legal element of that type;
//	(ρ) association tuples are legal elements of the association type and
//	    reference only existing objects (no nil oids); class-to-class
//	    references point to existing objects or are nil.
//
// All violations found are returned, joined, in a fixed order: clause by
// clause, declaration order within a clause, then oid or tuple-key order.
func Audit(ck *types.Checks, st Store) error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("instance: "+format, args...))
	}

	// (a) isa containment.
	for _, e := range ck.Isa {
		st.EachObject(e.Sub, func(o value.OID) bool {
			if !st.Member(e.Super, o) {
				report("oid %s is in %s but not in its superclass %s", o, e.Sub, e.Super)
			}
			return true
		})
	}

	// (b) hierarchy disjointness: an oid of class j is reported when the
	// class that owns it — the first of its classes before j in
	// declaration order, replaced by each later one of a common
	// hierarchy — shares no ancestor with j. Only an oid that a class
	// apart from j holds can be.
	for j, c := range ck.Classes {
		apart := ck.Apart(j)
		if len(apart) == 0 {
			continue
		}
		st.EachObject(c.Name, func(o value.OID) bool {
			if !slices.ContainsFunc(apart, func(i int) bool { return st.Member(ck.Classes[i].Name, o) }) {
				return true
			}
			owner := -1
			for i := range j {
				if st.Member(ck.Classes[i].Name, o) && (owner < 0 || ck.SameHierarchy(owner, i)) {
					owner = i
				}
			}
			if !ck.SameHierarchy(owner, j) {
				report("oid %s belongs to %s and %s, which share no common ancestor", o, ck.Classes[owner].Name, c.Name)
			}
			return true
		})
	}

	// (ν) o-value typing + class-to-class references.
	member := st.Member
	var src []value.Tuple
	for _, c := range ck.Classes {
		if c.Err != nil {
			errs = append(errs, c.Err)
			continue
		}
		// at is component i of the projection of ν(o) = src[0] ⊕ src[1]
		// ⊕ …: the last source's value for the label.
		at := func(i int) value.Value {
			label := c.Label(i)
			for k := len(src) - 1; k >= 0; k-- {
				if v, ok := src[k].Get(label); ok {
					return v
				}
			}
			return value.Null{}
		}
		st.EachObject(c.Name, func(o value.OID) bool {
			if src = st.OValue(o, src[:0]); len(src) == 0 {
				report("oid %s of class %s has no o-value", o, c.Name)
				return true
			}
			if err := c.Value(at, c.Policy); err != nil {
				report("o-value of %s in class %s: %v", o, c.Name, err)
				return true
			}
			c.Refs(at, func(class string, v value.Value) {
				checkRef(member, c.Name, class, v, c.Policy == types.NilAllowed, report)
			})
			return true
		})
	}

	// (ρ) association typing + referential integrity.
	for _, a := range ck.Assocs {
		if a.Err != nil {
			errs = append(errs, a.Err)
			continue
		}
		st.EachTuple(a.Name, func(t value.Tuple) bool {
			errs = append(errs, CheckAssocTuple(a.Name, a, t, member)...)
			return true
		})
	}
	return errors.Join(errs...)
}

// mapStore is an Instance as the audit reads it.
type mapStore Instance

func (m *mapStore) Member(class string, oid value.OID) bool { return m.classes[class][oid] }

func (m *mapStore) EachObject(class string, fn func(value.OID) bool) {
	for _, o := range (*Instance)(m).Objects(class) {
		if !fn(o) {
			return
		}
	}
}

func (m *mapStore) OValue(oid value.OID, buf []value.Tuple) []value.Tuple {
	if v, ok := m.ovalues[oid]; ok {
		buf = append(buf, v)
	}
	return buf
}

func (m *mapStore) EachTuple(assoc string, fn func(value.Tuple) bool) {
	for _, t := range (*Instance)(m).Tuples(assoc) {
		if !fn(t) {
			return
		}
	}
}

// CheckTuple audits one association tuple against the instance — clause
// (ρ) for that tuple alone.
func (in *Instance) CheckTuple(assoc string, t value.Tuple) error {
	c := in.schema.Check(assoc)
	if c.Err != nil {
		return c.Err
	}
	return errors.Join(CheckAssocTuple(assoc, c, t, (*mapStore)(in).Member)...)
}

// CheckAssocTuple is the per-tuple rule of clause (ρ), shared by the full
// audit and every per-tuple audit: the projection of t on the effective
// type c checks must be a legal element of it with no nil oids, and each
// class-typed position must name an object member reports. It returns
// every violation, in the order Audit reports them, naming the
// association assoc.
func CheckAssocTuple(assoc string, c *types.Check, t value.Tuple, member Membership) []error {
	at := func(i int) value.Value {
		if v, ok := t.Get(c.Label(i)); ok {
			return v
		}
		return value.Null{}
	}
	if err := c.Value(at, types.NilForbidden); err != nil {
		return []error{fmt.Errorf("instance: tuple of %s: %v", assoc, err)}
	}
	var errs []error
	c.Refs(at, func(class string, v value.Value) {
		checkRef(member, assoc, class, v, false, func(format string, args ...any) {
			errs = append(errs, fmt.Errorf("instance: "+format, args...))
		})
	})
	return errs
}

// checkRef verifies that v, the value of a position of owner typed by
// class, references an existing object of that class (or is nil when
// nilOK holds).
func checkRef(member Membership, owner, class string, v value.Value, nilOK bool, report func(string, ...any)) {
	ref, ok := v.(value.Ref)
	if !ok {
		if _, isNull := v.(value.Null); isNull && nilOK {
			return
		}
		report("%s: expected reference to %s, got %s", owner, class, v)
		return
	}
	oid := value.OID(ref)
	if oid.IsNil() {
		if !nilOK {
			report("%s: nil oid in association position of class %s", owner, class)
		}
		return
	}
	if !member(class, oid) {
		report("%s: dangling reference %s to class %s", owner, oid, class)
	}
}
