package types

import (
	"slices"

	"logres/internal/value"
)

// Check is the Definition 4 check of one class or association: its
// effective tuple type with every domain expanded, the component labels,
// and the canonical class name of each reference position. Validate
// compiles one per declaration, so an audit checks each value component
// by component against it, neither projecting the value nor expanding a
// type per tuple. A Check is read-only once compiled: the readers and
// attempts that share a schema share its checks.
type Check struct {
	Name string // the canonical declaration name
	// Policy is the nil policy of the declaration's clause: NilAllowed
	// for a class (ν), NilForbidden for an association (ρ).
	Policy RefPolicy
	// Err is why the declaration has no effective tuple type; the audit
	// reports it once, in place of checking the declaration's values.
	Err error

	fields []Field // the effective tuple type, domains expanded
	// typeErr is why the effective type does not expand: every value
	// fails with it, as Schema.CheckValue fails.
	typeErr error
	refs    []int // the components whose type holds a class reference
}

// Label returns the label of component i of the effective tuple type.
func (c *Check) Label(i int) string { return c.fields[i].Label }

// Value verifies that the tuple whose component i is at(i) is a legal
// element of the effective type under policy. at(i) is the projection's
// component: null where the value lacks the label. The error is the one
// Schema.CheckValue returns for the effective type and the projection.
func (c *Check) Value(at func(i int) value.Value, policy RefPolicy) error {
	if c.typeErr != nil {
		return c.typeErr
	}
	for i, f := range c.fields {
		if err := checkValue(f.Type, at(i), policy, f.Label); err != nil {
			return err
		}
	}
	return nil
}

// Refs calls fn with the class name and the value of every class-typed
// position of the tuple whose component i is at(i), in type order.
func (c *Check) Refs(at func(i int) value.Value, fn func(class string, v value.Value)) {
	for _, i := range c.refs {
		eachRef(c.fields[i].Type, at(i), fn)
	}
}

// eachRef walks v along t, an expanded type, to its class references.
func eachRef(t Type, v value.Value, fn func(string, value.Value)) {
	switch x := t.(type) {
	case Named:
		fn(x.Name, v)
	case Tuple:
		tv, ok := v.(value.Tuple)
		if !ok {
			return
		}
		for _, f := range x.Fields {
			if fv, found := tv.Get(f.Label); found {
				eachRef(f.Type, fv, fn)
			}
		}
	case Set:
		if sv, ok := v.(value.Set); ok {
			for _, e := range sv.Elems() {
				eachRef(x.Elem, e, fn)
			}
		}
	case Multiset:
		if mv, ok := v.(value.Multiset); ok {
			for _, e := range mv.Elems() {
				eachRef(x.Elem, e, fn)
			}
		}
	case Sequence:
		if qv, ok := v.(value.Sequence); ok {
			for _, e := range qv.Elems() {
				eachRef(x.Elem, e, fn)
			}
		}
	}
}

// hasRef reports whether the expanded type t holds a class reference (a
// Named, once domains are expanded).
func hasRef(t Type) bool {
	switch x := t.(type) {
	case Named:
		return true
	case Tuple:
		return slices.ContainsFunc(x.Fields, func(f Field) bool { return hasRef(f.Type) })
	case Set:
		return hasRef(x.Elem)
	case Multiset:
		return hasRef(x.Elem)
	case Sequence:
		return hasRef(x.Elem)
	}
	return false
}

// Checks is a schema's Definition 4 check, compiled once by Validate:
// one Check per class and association, and what clauses (a) and (b)
// read of the isa hierarchy.
type Checks struct {
	Classes []*Check  // declaration order
	Assocs  []*Check  // declaration order
	Isa     []IsaEdge // declaration order
	// Compose lists the classes in name order: the order in which an
	// oid's class facts compose (⊕) into its o-value, as engine.ToInstance
	// adds them.
	Compose []string

	same   []bool  // same[i*len(Classes)+j]: Classes[i] and Classes[j] share an ancestor
	apart  [][]int // apart[j]: the i < j whose class shares none with Classes[j]
	byName map[string]*Check
}

// SameHierarchy reports whether Classes[i] and Classes[j] share a common
// ancestor (Schema.SameHierarchy).
func (c *Checks) SameHierarchy(i, j int) bool { return c.same[i*len(c.Classes)+j] }

// Apart returns the indexes i < j, ascending, of the classes that share
// no ancestor with Classes[j]: the only classes whose objects can break
// hierarchy disjointness where Classes[j] meets them.
func (c *Checks) Apart(j int) []int { return c.apart[j] }

// Checks returns the schema's compiled Definition 4 check: the one
// Validate compiled, or, on a schema no Validate passed, one compiled
// now and not kept.
func (s *Schema) Checks() *Checks {
	if c := s.checks.Load(); c != nil {
		return c
	}
	return s.compileChecks()
}

// Check returns the check of one name: the one Validate compiled for a
// class or association, or one compiled now, whose Err says why a name
// that is neither has no effective tuple type.
func (s *Schema) Check(name string) *Check {
	name = Canon(name)
	if ck := s.checks.Load(); ck != nil {
		if c, ok := ck.byName[name]; ok {
			return c
		}
	}
	return s.compileCheck(name)
}

// compileChecks compiles the check of every class and association.
func (s *Schema) compileChecks() *Checks {
	classes := s.NamesOf(DeclClass)
	assocs := s.NamesOf(DeclAssociation)
	c := &Checks{
		Classes: make([]*Check, len(classes)),
		Assocs:  make([]*Check, len(assocs)),
		Isa:     s.IsaEdges(),
		Compose: slices.Clone(classes),
		byName:  make(map[string]*Check, len(classes)+len(assocs)),
	}
	slices.Sort(c.Compose)
	for i, name := range classes {
		c.Classes[i] = s.compileCheck(name)
		c.byName[name] = c.Classes[i]
	}
	for i, name := range assocs {
		c.Assocs[i] = s.compileCheck(name)
		c.byName[name] = c.Assocs[i]
	}
	// Two classes share an ancestor when their ancestries, each class
	// included, meet.
	k := len(classes)
	lineage := make([][]string, k)
	for i, name := range classes {
		lineage[i] = append(s.Ancestors(name), name)
	}
	c.same = make([]bool, k*k)
	c.apart = make([][]int, k)
	for j := range classes {
		for i := range classes {
			same := slices.ContainsFunc(lineage[i], func(a string) bool { return slices.Contains(lineage[j], a) })
			c.same[i*k+j] = same
			if i < j && !same {
				c.apart[j] = append(c.apart[j], i)
			}
		}
	}
	return c
}

// compileCheck compiles the check of one declaration.
func (s *Schema) compileCheck(name string) *Check {
	c := &Check{Name: name, Policy: NilForbidden}
	if s.IsClass(name) {
		c.Policy = NilAllowed
	}
	eff, err := s.EffectiveTuple(name)
	if err != nil {
		c.Err = err
		return c
	}
	et, err := s.ExpandDomains(eff)
	if err != nil {
		c.typeErr = err
		return c
	}
	c.fields = et.(Tuple).Fields
	for i, f := range c.fields {
		if hasRef(f.Type) {
			c.refs = append(c.refs, i)
		}
	}
	return c
}
