package types

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// DeclKind distinguishes the four kinds of schema declarations.
type DeclKind int

// Declaration kinds.
const (
	DeclDomain DeclKind = iota
	DeclClass
	DeclAssociation
	DeclFunction
)

func (k DeclKind) String() string {
	switch k {
	case DeclDomain:
		return "domain"
	case DeclClass:
		return "class"
	case DeclAssociation:
		return "association"
	case DeclFunction:
		return "function"
	}
	return fmt.Sprintf("declkind(%d)", int(k))
}

// Decl is one schema declaration: a type equation for a domain, class or
// association, or a data-function signature F : Arg → {Result}.
type Decl struct {
	Name string
	Kind DeclKind
	// RHS is the right-hand side of the type equation (domains, classes,
	// associations). Nil for functions.
	RHS Type
	// Arg is the function argument type; nil for nullary functions.
	Arg Type
	// Result is the element type of the function's set-valued result:
	// F : Arg → {Result}.
	Result Type
}

// IsaEdge records a generalization declaration `Sub [Label] isa Super`.
// Label qualifies which RHS component of Sub embodies the inherited part
// (the paper's `EMPL emp ISA PERSON`); empty means the default label (the
// lower-cased superclass name).
type IsaEdge struct {
	Sub   string
	Label string
	Super string
}

// Schema is the static structure of a LOGRES database: the function Σ from
// names to type descriptors plus the isa partial order (Definition 2).
type Schema struct {
	decls map[string]*Decl
	order []string // declaration order, for deterministic iteration
	isa   []IsaEdge

	// caches, invalidated on mutation
	effective map[string]Tuple
	valid     atomic.Bool            // Validate passed
	checks    atomic.Pointer[Checks] // Definition 4's check, compiled by Validate
}

// Canon normalizes an identifier: LOGRES names are case-insensitive and the
// paper freely mixes PERSON/person; hyphens in the paper's examples (H-TEAM)
// become underscores.
func Canon(name string) string {
	return strings.ReplaceAll(strings.ToLower(name), "-", "_")
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{decls: map[string]*Decl{}}
}

func (s *Schema) invalidate() {
	s.effective = nil
	s.valid.Store(false)
	s.checks.Store(nil)
}

// normalizeType canonicalizes every name and label inside a descriptor.
func normalizeType(t Type) Type {
	switch x := t.(type) {
	case nil:
		return nil
	case Named:
		return Named{Name: Canon(x.Name)}
	case Tuple:
		fs := make([]Field, len(x.Fields))
		for i, f := range x.Fields {
			fs[i] = Field{Label: Canon(f.Label), Type: normalizeType(f.Type)}
		}
		return Tuple{Fields: fs}
	case Set:
		return Set{Elem: normalizeType(x.Elem)}
	case Multiset:
		return Multiset{Elem: normalizeType(x.Elem)}
	case Sequence:
		return Sequence{Elem: normalizeType(x.Elem)}
	}
	return t
}

func (s *Schema) add(d *Decl) error {
	d.Name = Canon(d.Name)
	d.RHS = normalizeType(d.RHS)
	d.Arg = normalizeType(d.Arg)
	d.Result = normalizeType(d.Result)
	if d.Name == "" {
		return fmt.Errorf("types: empty declaration name")
	}
	if prev, ok := s.decls[d.Name]; ok {
		return fmt.Errorf("types: %s %q conflicts with existing %s", d.Kind, d.Name, prev.Kind)
	}
	s.decls[d.Name] = d
	s.order = append(s.order, d.Name)
	s.invalidate()
	return nil
}

// AddDomain declares a domain type equation.
func (s *Schema) AddDomain(name string, rhs Type) error {
	return s.add(&Decl{Name: name, Kind: DeclDomain, RHS: rhs})
}

// AddClass declares a class type equation.
func (s *Schema) AddClass(name string, rhs Type) error {
	return s.add(&Decl{Name: name, Kind: DeclClass, RHS: rhs})
}

// AddAssociation declares an association type equation.
func (s *Schema) AddAssociation(name string, rhs Type) error {
	return s.add(&Decl{Name: name, Kind: DeclAssociation, RHS: rhs})
}

// AddFunction declares a data function F : arg → {result}. A nil arg
// declares a nullary function.
func (s *Schema) AddFunction(name string, arg, result Type) error {
	return s.add(&Decl{Name: name, Kind: DeclFunction, Arg: arg, Result: result})
}

// AddIsa declares `sub [label] isa super`.
func (s *Schema) AddIsa(sub, label, super string) error {
	e := IsaEdge{Sub: Canon(sub), Label: Canon(label), Super: Canon(super)}
	for _, x := range s.isa {
		if x == e {
			return fmt.Errorf("types: duplicate isa %s isa %s", e.Sub, e.Super)
		}
	}
	s.isa = append(s.isa, e)
	s.invalidate()
	return nil
}

// Lookup returns the declaration for name.
func (s *Schema) Lookup(name string) (*Decl, bool) {
	d, ok := s.decls[Canon(name)]
	return d, ok
}

// Names returns all declared names in declaration order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// NamesOf returns all names of the given kind, in declaration order, in
// a slice of their exact length.
func (s *Schema) NamesOf(kind DeclKind) []string {
	n := 0
	for _, name := range s.order {
		if s.decls[name].Kind == kind {
			n++
		}
	}
	out := make([]string, 0, n)
	for _, name := range s.order {
		if s.decls[name].Kind == kind {
			out = append(out, name)
		}
	}
	return out
}

// IsClass reports whether name is a class.
func (s *Schema) IsClass(name string) bool { return s.kindIs(name, DeclClass) }

// IsAssociation reports whether name is an association.
func (s *Schema) IsAssociation(name string) bool { return s.kindIs(name, DeclAssociation) }

// IsFunction reports whether name is a data function.
func (s *Schema) IsFunction(name string) bool { return s.kindIs(name, DeclFunction) }

func (s *Schema) kindIs(name string, k DeclKind) bool {
	d, ok := s.decls[Canon(name)]
	return ok && d.Kind == k
}

// IsaEdges returns a copy of the declared isa edges.
func (s *Schema) IsaEdges() []IsaEdge {
	out := make([]IsaEdge, len(s.isa))
	copy(out, s.isa)
	return out
}

// DirectSupers returns the direct superclasses of sub.
func (s *Schema) DirectSupers(sub string) []IsaEdge {
	sub = Canon(sub)
	var out []IsaEdge
	for _, e := range s.isa {
		if e.Sub == sub {
			out = append(out, e)
		}
	}
	return out
}

// Ancestors returns the transitive isa-ancestors of c (not including c),
// in deterministic order.
func (s *Schema) Ancestors(c string) []string {
	seen := map[string]bool{}
	var walk func(string)
	walk = func(x string) {
		for _, e := range s.DirectSupers(x) {
			if !seen[e.Super] {
				seen[e.Super] = true
				walk(e.Super)
			}
		}
	}
	walk(Canon(c))
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SameHierarchy reports whether two classes belong to the same
// generalization hierarchy, i.e. share a common ancestor (possibly one of
// the two themselves). Objects of classes in different hierarchies can
// never share an oid (§2.1).
func (s *Schema) SameHierarchy(c1, c2 string) bool {
	c1, c2 = Canon(c1), Canon(c2)
	a1 := append(s.Ancestors(c1), c1)
	a2 := append(s.Ancestors(c2), c2)
	in2 := map[string]bool{}
	for _, x := range a2 {
		in2[x] = true
	}
	for _, x := range a1 {
		if in2[x] {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the schema. Type descriptors are immutable
// and shared.
func (s *Schema) Clone() *Schema {
	n := NewSchema()
	for _, name := range s.order {
		d := *s.decls[name]
		n.decls[name] = &d
		n.order = append(n.order, name)
	}
	n.isa = append([]IsaEdge{}, s.isa...)
	return n
}

// Union returns s ∪ other (module application S0 ∪ SM). Redeclaring a name
// with an identical equation is tolerated; a conflicting redeclaration is an
// error.
func (s *Schema) Union(other *Schema) (*Schema, error) {
	out := s.Clone()
	for _, name := range other.order {
		d := other.decls[name]
		if prev, ok := out.decls[name]; ok {
			if prev.Kind != d.Kind || !EqualType(prev.RHS, d.RHS) ||
				!EqualType(prev.Arg, d.Arg) || !EqualType(prev.Result, d.Result) {
				return nil, fmt.Errorf("types: union: conflicting redeclaration of %q", name)
			}
			continue
		}
		cp := *d
		out.decls[name] = &cp
		out.order = append(out.order, name)
	}
edges:
	for _, e := range other.isa {
		for _, x := range out.isa {
			if x == e {
				continue edges
			}
		}
		out.isa = append(out.isa, e)
	}
	return out, nil
}

// Subtract returns s − other (module application S0 − SM): declarations and
// isa edges present in other are removed.
func (s *Schema) Subtract(other *Schema) *Schema {
	out := NewSchema()
	for _, name := range s.order {
		if _, drop := other.decls[name]; drop {
			continue
		}
		d := *s.decls[name]
		out.decls[name] = &d
		out.order = append(out.order, name)
	}
edges:
	for _, e := range s.isa {
		for _, x := range other.isa {
			if x == e {
				continue edges
			}
		}
		// Drop edges mentioning removed classes.
		if _, ok := out.decls[e.Sub]; !ok {
			continue
		}
		if _, ok := out.decls[e.Super]; !ok {
			continue
		}
		out.isa = append(out.isa, e)
	}
	return out
}

// String renders the schema as LOGRES declarations.
func (s *Schema) String() string {
	var b strings.Builder
	for _, kind := range []DeclKind{DeclDomain, DeclClass, DeclAssociation, DeclFunction} {
		names := s.NamesOf(kind)
		if len(names) == 0 {
			continue
		}
		switch kind {
		case DeclDomain:
			b.WriteString("domains\n")
		case DeclClass:
			b.WriteString("classes\n")
		case DeclAssociation:
			b.WriteString("associations\n")
		case DeclFunction:
			b.WriteString("functions\n")
		}
		for _, n := range names {
			d := s.decls[n]
			if kind == DeclFunction {
				if d.Arg != nil {
					fmt.Fprintf(&b, "  %s: %s -> {%s};\n", n, d.Arg, d.Result)
				} else {
					fmt.Fprintf(&b, "  %s: -> {%s};\n", n, d.Result)
				}
				continue
			}
			fmt.Fprintf(&b, "  %s = %s;\n", n, d.RHS)
			if kind == DeclClass {
				for _, e := range s.DirectSupers(n) {
					if e.Label != "" && e.Label != Canon(e.Super) {
						fmt.Fprintf(&b, "  %s %s isa %s;\n", n, e.Label, e.Super)
					} else {
						fmt.Fprintf(&b, "  %s isa %s;\n", n, e.Super)
					}
				}
			}
		}
	}
	return b.String()
}
