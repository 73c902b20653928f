package types

import (
	"errors"
	"fmt"
)

// Validate checks every structural rule of §2 and Appendix A:
//
//   - all referenced names are declared;
//   - domains contain no class or association names (transitively);
//   - associations contain only classes and domains (no nested
//     associations) and class components reference existing classes;
//   - classes contain only classes and domains;
//   - tuple labels are unique (after inheritance splicing);
//   - isa edges connect classes, form a strict partial order (no cycles)
//     and satisfy the refinement condition C1 ≤ C2;
//   - multiple inheritance only among classes sharing a common ancestor;
//   - labelled isa edges name an actual RHS component;
//   - function signatures resolve.
//
// It returns all problems found, joined. A schema that passed is not
// checked again until a mutation invalidates it, and carries from then on
// its compiled Definition 4 check (Checks).
func (s *Schema) Validate() error {
	if s.valid.Load() {
		return nil
	}
	if err := s.validate(); err != nil {
		return err
	}
	s.checks.Store(s.compileChecks())
	s.valid.Store(true)
	return nil
}

func (s *Schema) validate() error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("types: "+format, args...))
	}

	// Per-declaration structural checks.
	for _, name := range s.order {
		d := s.decls[name]
		switch d.Kind {
		case DeclDomain:
			s.checkComponent(name, d.RHS, compDomain, report)
		case DeclClass:
			s.checkComponent(name, d.RHS, compClass, report)
			if _, err := s.EffectiveTuple(name); err != nil {
				errs = append(errs, err)
			}
		case DeclAssociation:
			s.checkComponent(name, d.RHS, compAssociation, report)
			if _, err := s.EffectiveTuple(name); err != nil {
				errs = append(errs, err)
			}
		case DeclFunction:
			if d.Arg != nil {
				s.checkComponent(name, d.Arg, compDomain|compAllowClass, report)
			}
			if d.Result == nil {
				report("function %q has no result type", name)
			} else {
				s.checkComponent(name, d.Result, compDomain|compAllowClass, report)
			}
		}
	}

	// isa checks.
	for _, e := range s.isa {
		sub, okSub := s.decls[e.Sub]
		super, okSuper := s.decls[e.Super]
		if !okSub || sub.Kind != DeclClass {
			report("isa: %q is not a declared class", e.Sub)
			continue
		}
		if !okSuper || super.Kind != DeclClass {
			report("isa: %q is not a declared class", e.Super)
			continue
		}
		if e.Sub == e.Super {
			report("isa: %q isa itself", e.Sub)
			continue
		}
	}
	if cyc := s.isaCycle(); cyc != "" {
		report("isa hierarchy contains a cycle through %q", cyc)
		return errors.Join(errs...) // cyclic schemas break the checks below
	}
	for _, e := range s.isa {
		if !s.IsClass(e.Sub) || !s.IsClass(e.Super) {
			continue
		}
		// Labelled edges must name an actual RHS component of class type.
		if err := s.checkIsaLabel(e); err != nil {
			errs = append(errs, err)
		}
		// Refinement condition (Definition 2).
		if !s.Refines(Named{Name: e.Sub}, Named{Name: e.Super}) {
			report("isa: %s is not a refinement of %s", e.Sub, e.Super)
		}
	}
	// Multiple inheritance: direct supers must pairwise share an ancestor.
	for _, name := range s.NamesOf(DeclClass) {
		supers := s.DirectSupers(name)
		for i := 0; i < len(supers); i++ {
			for j := i + 1; j < len(supers); j++ {
				a, b := supers[i].Super, supers[j].Super
				if !s.IsClass(a) || !s.IsClass(b) {
					continue
				}
				if !s.SameHierarchy(a, b) {
					report("multiple inheritance: %s isa %s and %s isa %s, but %s and %s share no common ancestor",
						name, a, name, b, a, b)
				}
			}
		}
	}
	return errors.Join(errs...)
}

type compMode int

const (
	compDomain      compMode = 1 << iota // inside a domain: no classes, no associations
	compClass                            // inside a class RHS: classes + domains
	compAssociation                      // inside an association RHS: classes + domains
	compAllowClass                       // modifier: class references allowed
)

// checkComponent walks a type descriptor checking name resolution, label
// uniqueness, and the containment rules of §2.1.
func (s *Schema) checkComponent(owner string, t Type, mode compMode, report func(string, ...any)) {
	switch x := t.(type) {
	case nil:
		report("%q has no type equation", owner)
	case Elementary:
	case Named:
		name := Canon(x.Name)
		d, ok := s.decls[name]
		if !ok {
			report("%q references undeclared name %q", owner, name)
			return
		}
		switch d.Kind {
		case DeclFunction:
			report("%q references function %q as a type", owner, name)
		case DeclClass:
			if mode&compDomain != 0 && mode&compAllowClass == 0 {
				report("domain %q references class %q (domains may not contain classes)", owner, name)
			}
		case DeclAssociation:
			// An association name is only legal as a whole-RHS alias, which
			// the callers pass directly; nested references are errors for
			// associations ("associations cannot contain other
			// associations") and for domains.
			if mode&compDomain != 0 {
				report("domain %q references association %q", owner, name)
			}
		}
	case Tuple:
		seen := map[string]bool{}
		for _, f := range x.Fields {
			if f.Label == "" {
				report("%q: tuple component %s has no label", owner, f.Type)
			} else if seen[f.Label] {
				report("%q: duplicate label %q", owner, f.Label)
			}
			seen[f.Label] = true
			s.checkNested(owner, f.Type, mode, report)
		}
	case Set:
		s.checkNested(owner, x.Elem, mode, report)
	case Multiset:
		s.checkNested(owner, x.Elem, mode, report)
	case Sequence:
		s.checkNested(owner, x.Elem, mode, report)
	default:
		report("%q: unknown type descriptor %T", owner, t)
	}
}

// checkNested checks a component position (not the whole RHS): here
// association names are always illegal.
func (s *Schema) checkNested(owner string, t Type, mode compMode, report func(string, ...any)) {
	if n, ok := t.(Named); ok {
		name := Canon(n.Name)
		if d, declared := s.decls[name]; declared && d.Kind == DeclAssociation {
			report("%q embeds association %q in a component position", owner, name)
			return
		}
	}
	s.checkComponent(owner, t, mode, report)
}

func (s *Schema) checkIsaLabel(e IsaEdge) error {
	d := s.decls[e.Sub]
	tup, ok := d.RHS.(Tuple)
	if !ok {
		// Alias RHS: the inherited component is implicit; accept.
		return nil
	}
	want := e.Label
	if want == "" {
		want = Canon(e.Super)
	}
	for _, f := range tup.Fields {
		if f.Label != want {
			continue
		}
		if n, isName := f.Type.(Named); isName && Canon(n.Name) == e.Super {
			return nil
		}
		return fmt.Errorf("types: isa %s %s isa %s: component %q is not of class %s",
			e.Sub, e.Label, e.Super, want, e.Super)
	}
	// No matching component: legal only when the subclass repeats the
	// superclass attributes itself (checked by the refinement condition).
	return nil
}

// isaCycle returns a class on an isa cycle, or "".
func (s *Schema) isaCycle() string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var cyc string
	var visit func(string) bool
	visit = func(n string) bool {
		switch color[n] {
		case gray:
			cyc = n
			return true
		case black:
			return false
		}
		color[n] = gray
		for _, e := range s.DirectSupers(n) {
			if visit(e.Super) {
				return true
			}
		}
		color[n] = black
		return false
	}
	for _, e := range s.isa {
		if visit(e.Sub) {
			return cyc
		}
	}
	return ""
}
