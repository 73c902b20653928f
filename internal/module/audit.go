package module

import (
	"errors"
	"fmt"

	"logres/internal/engine"
	"logres/internal/instance"
	"logres/internal/types"
	"logres/internal/value"
)

// AuditDelta is the Result.Audit of an application that checked only
// what it changed; every other audit reads "full: " followed by why the
// whole instance was checked.
const AuditDelta = "delta"

// auditRulesSchema is the audit of an application whose program no commit
// audited: rules or schema changed, or a RIDI module brought its own.
const auditRulesSchema = "full: rule or schema change"

// auditFull checks the whole derived instance — in, converted from the
// set f that prog derived: Definition 4 consistency, then the passive
// constraints.
func auditFull(in *instance.Instance, prog *engine.Program, f *engine.FactSet) error {
	if err := in.CheckConsistency(); err != nil {
		return fmt.Errorf("module: instance inconsistent: %w", err)
	}
	return prog.CheckDenials(f)
}

// auditFullBecause runs the full audit over the derived set f and names
// the audit "full: " + why.
func auditFullBecause(why string, s *types.Schema, prog *engine.Program, f *engine.FactSet) (string, error) {
	return "full: " + why, auditFull(engine.ToInstance(f, s, 0), prog, f)
}

// classFactIn reports whether changed names a class. A class fact in the
// delta, added or removed, can break isa containment, disjointness,
// o-value typing or any reference to the object, which only the full
// audit checks.
func classFactIn(s *types.Schema, changed map[string]bool) bool {
	for p := range changed {
		if s.IsClass(p) {
			return true
		}
	}
	return false
}

// AuditInstanceDelta audits the derived instance f = R(E′) of a commit
// that changed only E, given the instance delta from a parent instance
// that passed the full audit: adds = R(E′) − R(E), each predicate's facts
// in key order, and changed, the predicates of adds and of the removes
// R(E) − R(E′). It accepts and rejects exactly what the full audit of f
// does, with the same error text, and returns the audit it ran:
//
//   - a class fact in the delta: the full audit runs over f;
//   - otherwise only the added association tuples can violate Definition 4
//     (class membership did not move, and nothing references a tuple), so
//     each is checked by clause (ρ)'s per-tuple rule against f's classes;
//   - only the denials that read a changed predicate or the active domain
//     are evaluated over f.
func AuditInstanceDelta(s *types.Schema, prog *engine.Program, f *engine.FactSet, adds []engine.Fact, changed map[string]bool) (string, error) {
	if classFactIn(s, changed) {
		return auditFullBecause("class fact in delta", s, prog, f)
	}
	if err := checkAddedTuples(s, f, adds); err != nil {
		return AuditDelta, fmt.Errorf("module: instance inconsistent: %w", err)
	}
	return AuditDelta, prog.CheckDenialsReading(f, changed)
}

// checkAddedTuples runs clause (ρ) over the added association tuples, in
// the order CheckConsistency reports violations: associations in
// declaration order, tuples in key order — the order adds already has
// within each predicate. Function facts are not audited by Definition 4.
func checkAddedTuples(s *types.Schema, f *engine.FactSet, adds []engine.Fact) error {
	byAssoc := map[string][]value.Tuple{}
	for _, fact := range adds {
		if s.IsAssociation(fact.Pred) {
			byAssoc[fact.Pred] = append(byAssoc[fact.Pred], fact.Tuple)
		}
	}
	if len(byAssoc) == 0 {
		return nil
	}
	member := func(class string, oid value.OID) bool {
		_, ok := f.HasOID(class, oid)
		return ok
	}
	var errs []error
	for _, a := range s.NamesOf(types.DeclAssociation) {
		ts := byAssoc[a]
		if len(ts) == 0 {
			continue
		}
		eff, err := s.EffectiveTuple(a)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, t := range ts {
			errs = append(errs, instance.CheckAssocTuple(s, a, eff, t, member)...)
		}
	}
	return errors.Join(errs...)
}
