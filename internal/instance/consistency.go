package instance

import (
	"errors"
	"fmt"

	"logres/internal/types"
	"logres/internal/value"
)

// Membership reports oid ∈ π(class) for a canonical class name: the
// lookup every reference check of Definition 4 resolves through.
type Membership func(class string, oid value.OID) bool

// CheckConsistency verifies the legality conditions of Definition 4:
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
func (in *Instance) CheckConsistency() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("instance: "+format, args...))
	}
	s := in.schema

	// (a) isa containment.
	for _, e := range s.IsaEdges() {
		for _, o := range in.Objects(e.Sub) {
			if !in.classes[e.Super][o] {
				report("oid %s is in %s but not in its superclass %s", o, e.Sub, e.Super)
			}
		}
	}

	// (b) hierarchy disjointness.
	owner := map[value.OID]string{}
	for _, c := range s.NamesOf(types.DeclClass) {
		for _, o := range in.Objects(c) {
			if prev, ok := owner[o]; ok && prev != c && !s.SameHierarchy(prev, c) {
				report("oid %s belongs to %s and %s, which share no common ancestor", o, prev, c)
			} else {
				owner[o] = c
			}
		}
	}

	// (ν) o-value typing + class-to-class references.
	member := in.member
	for _, c := range s.NamesOf(types.DeclClass) {
		eff, err := s.EffectiveTuple(c)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, o := range in.Objects(c) {
			v, ok := in.ovalues[o]
			if !ok {
				report("oid %s of class %s has no o-value", o, c)
				continue
			}
			proj := Project(v, eff)
			if err := s.CheckValue(eff, proj, types.NilAllowed); err != nil {
				report("o-value of %s in class %s: %v", o, c, err)
				continue
			}
			checkRefs(s, member, c, eff, proj, true, report)
		}
	}

	// (ρ) association typing + referential integrity.
	for _, a := range s.NamesOf(types.DeclAssociation) {
		eff, err := s.EffectiveTuple(a)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, t := range in.Tuples(a) {
			errs = append(errs, CheckAssocTuple(s, a, eff, t, member)...)
		}
	}
	return errors.Join(errs...)
}

// member is the instance's Membership.
func (in *Instance) member(class string, oid value.OID) bool { return in.classes[class][oid] }

// CheckTuple audits one association tuple against the instance — clause
// (ρ) for that tuple alone.
func (in *Instance) CheckTuple(assoc string, t value.Tuple) error {
	eff, err := in.schema.EffectiveTuple(assoc)
	if err != nil {
		return err
	}
	return errors.Join(CheckAssocTuple(in.schema, assoc, eff, t, in.member)...)
}

// CheckAssocTuple is the per-tuple rule of clause (ρ), shared by the full
// audit and every per-tuple audit: the projection of t on eff, the
// association's effective type, must be a legal element of it with no
// nil oids, and each class-typed position must name an object member
// reports. It returns every violation, in the order CheckConsistency
// reports them.
func CheckAssocTuple(s *types.Schema, assoc string, eff types.Tuple, t value.Tuple, member Membership) []error {
	proj := Project(t, eff)
	if err := s.CheckValue(eff, proj, types.NilForbidden); err != nil {
		return []error{fmt.Errorf("instance: tuple of %s: %v", assoc, err)}
	}
	var errs []error
	checkRefs(s, member, assoc, eff, proj, false, func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("instance: "+format, args...))
	})
	return errs
}

// checkRefs walks a typed value and verifies that every class-typed
// position references an existing object of that class (or is nil when
// nilOK holds).
func checkRefs(s *types.Schema, member Membership, owner string, t types.Type, v value.Value, nilOK bool, report func(string, ...any)) {
	switch x := t.(type) {
	case types.Named:
		// Expanded types only keep Named for class references.
		if !s.IsClass(x.Name) {
			// Unexpanded domain: expand and recurse.
			et, err := s.ExpandDomains(x)
			if err == nil {
				checkRefs(s, member, owner, et, v, nilOK, report)
			}
			return
		}
		ref, ok := v.(value.Ref)
		if !ok {
			if _, isNull := v.(value.Null); isNull && nilOK {
				return
			}
			report("%s: expected reference to %s, got %s", owner, x.Name, v)
			return
		}
		oid := value.OID(ref)
		if oid.IsNil() {
			if !nilOK {
				report("%s: nil oid in association position of class %s", owner, x.Name)
			}
			return
		}
		if !member(types.Canon(x.Name), oid) {
			report("%s: dangling reference %s to class %s", owner, oid, x.Name)
		}
	case types.Tuple:
		tv, ok := v.(value.Tuple)
		if !ok {
			return
		}
		for _, f := range x.Fields {
			if fv, found := tv.Get(f.Label); found {
				checkRefs(s, member, owner, f.Type, fv, nilOK, report)
			}
		}
	case types.Set:
		if sv, ok := v.(value.Set); ok {
			for _, e := range sv.Elems() {
				checkRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	case types.Multiset:
		if mv, ok := v.(value.Multiset); ok {
			for _, e := range mv.Elems() {
				checkRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	case types.Sequence:
		if qv, ok := v.(value.Sequence); ok {
			for _, e := range qv.Elems() {
				checkRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	}
}
