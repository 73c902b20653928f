package module

import (
	"errors"
	"fmt"
	"slices"
	"strings"

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
// audited: rules or schema changed, or a RIDI module declared types.
const auditRulesSchema = "full: rule or schema change"

// auditFull checks the whole instance f that prog derived over s:
// Definition 4 consistency, then the passive constraints.
func auditFull(s *types.Schema, prog *engine.Program, f *engine.FactSet) error {
	if err := CheckInstance(s, f); err != nil {
		return fmt.Errorf("module: instance inconsistent: %w", err)
	}
	return prog.CheckDenials(f)
}

// auditFullBecause runs the full audit over the derived set f and names
// the audit "full: " + why.
func auditFullBecause(why string, s *types.Schema, prog *engine.Program, f *engine.FactSet) (string, error) {
	return "full: " + why, auditFull(s, prog, f)
}

// CheckInstance verifies Definition 4 over the derived set f with s's
// compiled check, reading f in place: it reports exactly what
// engine.ToInstance(f, s, 0).CheckConsistency() reports, and builds no
// instance.
func CheckInstance(s *types.Schema, f *engine.FactSet) error {
	ck := s.Checks()
	return instance.Audit(ck, derivedFacts{f: f, compose: ck.Compose})
}

// derivedFacts is a derived fact set as the audit reads it: π(C) is C's
// class facts, by oid; ν(o) is the ⊕ of o's class facts in compose order,
// the order engine.ToInstance merges them in; ρ(A) is A's facts in key
// order.
type derivedFacts struct {
	f       *engine.FactSet
	compose []string
}

func (d derivedFacts) Member(class string, oid value.OID) bool {
	_, ok := d.f.HasOID(class, oid)
	return ok
}

func (d derivedFacts) EachObject(class string, fn func(value.OID) bool) {
	d.f.EachObject(class, func(f engine.Fact) bool { return fn(f.OID) })
}

func (d derivedFacts) OValue(oid value.OID, buf []value.Tuple) []value.Tuple {
	for _, c := range d.compose {
		if f, ok := d.f.HasOID(c, oid); ok {
			buf = append(buf, f.Tuple)
		}
	}
	return buf
}

func (d derivedFacts) EachTuple(assoc string, fn func(value.Tuple) bool) {
	d.f.Each(assoc, func(f engine.Fact) bool { return fn(f.Tuple) })
}

// auditDelta audits f, which prog derived after an update that changed
// the predicates changed and added the association tuples adds, given
// that the instance before it — derived by base — passed the audit: with
// AuditInstanceDelta, unless a rule of base sees the change
// (DeltaBlocker) and no class changed; then the full audit runs, named by
// what DeltaBlocker found.
func auditDelta(s *types.Schema, base, prog *engine.Program, f *engine.FactSet, adds []engine.Fact, changed map[string]bool) (string, error) {
	if why := base.DeltaBlocker(changed); why != "" && !classFactIn(s, changed) {
		return auditFullBecause(why, s, prog, f)
	}
	return AuditInstanceDelta(s, prog, f, adds, changed)
}

// auditRIDI audits f = (R ∪ R_M)(E), which prog — persistent, st's
// compiled R, extended by a RIDI's rules R_M — derived, through
// auditDelta: the change is what R_M writes (RuleFootprint.Added), and
// the added tuples those of its associations that f holds beyond E,
// each predicate's in key order. E's own facts passed the audit when st
// entered the database.
func auditRIDI(st *State, persistent, prog *engine.Program, f *engine.FactSet) (string, error) {
	written := prog.Footprint().Added
	changed := make(map[string]bool, len(written))
	var adds []engine.Fact
	for _, p := range written {
		// The write analysis names a data function by its store; rules
		// and the audit match it by name.
		p, _ = strings.CutPrefix(p, engine.FunctionStore(""))
		changed[p] = true
		if st.S.IsAssociation(p) {
			a, _ := f.DiffPred(st.E, p)
			adds = append(adds, a...)
		}
	}
	return auditDelta(st.S, persistent, prog, f, adds, changed)
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
// R(E) − R(E′). A RIDI's rules R_M audit (R ∪ R_M)(E) through it too,
// with changed the predicates R_M writes (auditRIDI). It accepts and
// rejects exactly what the full audit of f does, with the same error
// text, and returns the audit it ran:
//
//   - a class fact in the delta: the full audit runs over f;
//   - otherwise only the added association tuples can violate Definition 4
//     (class membership did not move, and nothing references a tuple), so
//     each is checked by clause (ρ)'s per-tuple rule against f's classes;
//   - only the denials that read a changed predicate or the active domain
//     are evaluated over f, and those Extend compiled into prog, which no
//     state was checked against.
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
// the order Definition 4's audit reports violations: associations in
// declaration order, tuples in key order — the order adds already has
// within each predicate. Function facts are not audited by Definition 4.
func checkAddedTuples(s *types.Schema, f *engine.FactSet, adds []engine.Fact) error {
	member := derivedFacts{f: f}.Member
	var errs []error
	for _, a := range s.Checks().Assocs {
		if a.Err != nil {
			if slices.ContainsFunc(adds, func(g engine.Fact) bool { return g.Pred == a.Name }) {
				errs = append(errs, a.Err)
			}
			continue
		}
		for _, fact := range adds {
			if fact.Pred == a.Name {
				errs = append(errs, instance.CheckAssocTuple(a.Name, a, fact.Tuple, member)...)
			}
		}
	}
	return errors.Join(errs...)
}
