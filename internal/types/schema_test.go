package types

import (
	"strings"
	"testing"
)

// footballSchema builds Example 2.1 of the paper.
func footballSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddDomain("NAME", String))
	must(s.AddDomain("ROLE", Int))
	must(s.AddDomain("DATE", String))
	must(s.AddDomain("SCORE", Tuple{Fields: []Field{{"home", Int}, {"guest", Int}}}))
	must(s.AddClass("PLAYER", Tuple{Fields: []Field{
		{"name", Named{"NAME"}},
		{"roles", Set{Named{"ROLE"}}},
	}}))
	must(s.AddClass("TEAM", Tuple{Fields: []Field{
		{"team_name", Named{"NAME"}},
		{"base_players", Sequence{Named{"PLAYER"}}},
		{"substitutes", Set{Named{"PLAYER"}}},
	}}))
	must(s.AddAssociation("GAME", Tuple{Fields: []Field{
		{"h_team", Named{"TEAM"}},
		{"g_team", Named{"TEAM"}},
		{"date", Named{"DATE"}},
		{"score", Named{"SCORE"}},
	}}))
	return s
}

// universitySchema builds Example 3.1 of the paper.
func universitySchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddDomain("NAME", String))
	must(s.AddDomain("ADDRESS", String))
	must(s.AddDomain("KIND", String))
	must(s.AddDomain("COURSE", String))
	must(s.AddClass("PERSON", Tuple{Fields: []Field{
		{"name", Named{"NAME"}}, {"address", Named{"ADDRESS"}},
	}}))
	must(s.AddClass("SCHOOL", Tuple{Fields: []Field{
		{"name", Named{"NAME"}}, {"address", Named{"ADDRESS"}},
		{"kind", Named{"KIND"}}, {"dean", Named{"PROFESSOR"}},
	}}))
	must(s.AddClass("STUDENT", Tuple{Fields: []Field{
		{"person", Named{"PERSON"}}, {"studschool", Named{"SCHOOL"}},
	}}))
	must(s.AddClass("PROFESSOR", Tuple{Fields: []Field{
		{"person", Named{"PERSON"}}, {"course", Named{"COURSE"}}, {"profschool", Named{"SCHOOL"}},
	}}))
	must(s.AddIsa("STUDENT", "", "PERSON"))
	must(s.AddIsa("PROFESSOR", "", "PERSON"))
	must(s.AddAssociation("ADVISES", Tuple{Fields: []Field{
		{"professor", Named{"PROFESSOR"}}, {"student", Named{"STUDENT"}},
	}}))
	return s
}

func TestFootballSchemaValidates(t *testing.T) {
	s := footballSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("football schema invalid: %v", err)
	}
}

func TestUniversitySchemaValidates(t *testing.T) {
	s := universitySchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("university schema invalid: %v", err)
	}
}

func TestCanon(t *testing.T) {
	if Canon("H-TEAM") != "h_team" || Canon("Person") != "person" {
		t.Fatal("Canon wrong")
	}
}

func TestDuplicateDeclarationRejected(t *testing.T) {
	s := NewSchema()
	if err := s.AddDomain("X", Int); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("x", Tuple{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestLookupIsCaseInsensitive(t *testing.T) {
	s := footballSchema(t)
	if _, ok := s.Lookup("PLAYER"); !ok {
		t.Fatal("upper-case lookup failed")
	}
	if _, ok := s.Lookup("player"); !ok {
		t.Fatal("lower-case lookup failed")
	}
	if !s.IsClass("Player") || !s.IsAssociation("game") || !s.kindIs("score", DeclDomain) {
		t.Fatal("kind predicates wrong")
	}
}

func TestEffectiveTupleSplicesInheritance(t *testing.T) {
	s := universitySchema(t)
	eff, err := s.EffectiveTuple("STUDENT")
	if err != nil {
		t.Fatal(err)
	}
	labels := fieldLabels(eff)
	want := []string{"name", "address", "studschool"}
	if strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Fatalf("student effective labels = %v, want %v", labels, want)
	}
	// studschool stays an object reference.
	f, _ := eff.Get("studschool")
	if n, ok := f.Type.(Named); !ok || n.Name != "school" {
		t.Fatalf("studschool type = %v", f.Type)
	}
}

func TestEffectiveTupleAlias(t *testing.T) {
	// Example 3.4: class IP = PAIR (association alias).
	s := NewSchema()
	if err := s.AddDomain("NAME", String); err != nil {
		t.Fatal(err)
	}
	if err := s.AddAssociation("PAIR", Tuple{Fields: []Field{
		{"p_name", Named{"NAME"}}, {"s_name", Named{"NAME"}},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddClass("IP", Named{"PAIR"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	eff, err := s.EffectiveTuple("IP")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fieldLabels(eff), ","); got != "p_name,s_name" {
		t.Fatalf("IP effective labels = %q", got)
	}
}

func TestLabelledIsaEdge(t *testing.T) {
	// EMPL = (emp PERSON, manager PERSON); EMPL emp isa PERSON.
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddDomain("NAME", String))
	must(s.AddClass("PERSON", Tuple{Fields: []Field{{"name", Named{"NAME"}}}}))
	must(s.AddClass("EMPL", Tuple{Fields: []Field{
		{"emp", Named{"PERSON"}}, {"manager", Named{"PERSON"}},
	}}))
	must(s.AddIsa("EMPL", "emp", "PERSON"))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	eff, err := s.EffectiveTuple("EMPL")
	if err != nil {
		t.Fatal(err)
	}
	// emp splices into "name"; manager stays a reference.
	if got := strings.Join(fieldLabels(eff), ","); got != "name,manager" {
		t.Fatalf("EMPL effective labels = %q", got)
	}
}

func fieldLabels(t Tuple) []string {
	out := make([]string, len(t.Fields))
	for i, f := range t.Fields {
		out[i] = f.Label
	}
	return out
}

func TestAncestorsDescendantsRoots(t *testing.T) {
	s := universitySchema(t)
	if got := s.Ancestors("student"); len(got) != 1 || got[0] != "person" {
		t.Fatalf("Ancestors(student) = %v", got)
	}
	if !s.SameHierarchy("student", "professor") || s.SameHierarchy("student", "school") {
		t.Fatal("SameHierarchy wrong")
	}
}

func TestIsaCycleDetected(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("A", Tuple{Fields: []Field{{"x", Int}}})
	_ = s.AddClass("B", Tuple{Fields: []Field{{"x", Int}}})
	_ = s.AddIsa("A", "", "B")
	_ = s.AddIsa("B", "", "A")
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestMultipleInheritanceNeedsCommonAncestor(t *testing.T) {
	bad := NewSchema()
	_ = bad.AddClass("A", Tuple{Fields: []Field{{"x", Int}}})
	_ = bad.AddClass("B", Tuple{Fields: []Field{{"y", Int}}})
	_ = bad.AddClass("C", Tuple{Fields: []Field{{"a", Named{"A"}}, {"b", Named{"B"}}}})
	_ = bad.AddIsa("C", "a", "A")
	_ = bad.AddIsa("C", "b", "B")
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "common ancestor") {
		t.Fatalf("disjoint multiple inheritance accepted: %v", err)
	}

	good := NewSchema()
	_ = good.AddClass("R", Tuple{Fields: []Field{{"x", Int}}})
	_ = good.AddClass("A", Tuple{Fields: []Field{{"r", Named{"R"}}, {"y", Int}}})
	_ = good.AddClass("B", Tuple{Fields: []Field{{"r", Named{"R"}}, {"z", Int}}})
	_ = good.AddClass("C", Tuple{Fields: []Field{{"a", Named{"A"}}, {"b", Named{"B"}}}})
	_ = good.AddIsa("A", "r", "R")
	_ = good.AddIsa("B", "r", "R")
	_ = good.AddIsa("C", "a", "A")
	_ = good.AddIsa("C", "b", "B")
	if err := good.Validate(); err != nil {
		t.Fatalf("diamond inheritance rejected: %v", err)
	}
	// Diamond: the shared attribute x is inherited once.
	eff, err := good.EffectiveTuple("C")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fieldLabels(eff), ","); got != "x,y,z" {
		t.Fatalf("diamond effective labels = %q", got)
	}
}

func TestConflictingInheritedLabelsRejected(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("A", Tuple{Fields: []Field{{"v", Int}}})
	_ = s.AddClass("B", Tuple{Fields: []Field{{"v", String}}})
	// Put A and B in one hierarchy so the common-ancestor rule passes.
	_ = s.AddClass("R", Tuple{Fields: []Field{}})
	_ = s.AddIsa("A", "", "R")
	_ = s.AddIsa("B", "", "R")
	_ = s.AddClass("C", Tuple{Fields: []Field{{"a", Named{"A"}}, {"b", Named{"B"}}}})
	_ = s.AddIsa("C", "a", "A")
	_ = s.AddIsa("C", "b", "B")
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "rename") {
		t.Fatalf("conflicting inherited labels accepted: %v", err)
	}
}

func TestDomainMayNotContainClass(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("C", Tuple{Fields: []Field{{"x", Int}}})
	_ = s.AddDomain("D", Set{Named{"C"}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "domains may not contain classes") {
		t.Fatalf("domain-with-class accepted: %v", err)
	}
}

func TestAssociationMayNotNestAssociation(t *testing.T) {
	s := NewSchema()
	_ = s.AddAssociation("A", Tuple{Fields: []Field{{"x", Int}}})
	_ = s.AddAssociation("B", Tuple{Fields: []Field{{"a", Named{"A"}}}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "embeds association") {
		t.Fatalf("nested association accepted: %v", err)
	}
}

func TestUndeclaredReferenceReported(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("C", Tuple{Fields: []Field{{"x", Named{"NOPE"}}}})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("undeclared reference accepted: %v", err)
	}
}

func TestIsaWithoutRefinementRejected(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("A", Tuple{Fields: []Field{{"x", Int}, {"y", Int}}})
	_ = s.AddClass("B", Tuple{Fields: []Field{{"z", Int}}}) // lacks A's fields
	_ = s.AddIsa("B", "", "A")
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "refinement") {
		t.Fatalf("non-refining isa accepted: %v", err)
	}
}

func TestUnionAndSubtract(t *testing.T) {
	s := footballSchema(t)
	m := NewSchema()
	if err := m.AddAssociation("RESULTLIST", Tuple{Fields: []Field{{"d", Named{"DATE"}}}}); err != nil {
		t.Fatal(err)
	}
	u, err := s.Union(m)
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsAssociation("resultlist") || !u.IsClass("player") {
		t.Fatal("union missing declarations")
	}
	// Identical redeclaration tolerated.
	m2 := NewSchema()
	_ = m2.AddDomain("NAME", String)
	if _, err := s.Union(m2); err != nil {
		t.Fatalf("identical redeclaration rejected: %v", err)
	}
	// Conflicting redeclaration rejected.
	m3 := NewSchema()
	_ = m3.AddDomain("NAME", Int)
	if _, err := s.Union(m3); err == nil {
		t.Fatal("conflicting redeclaration accepted")
	}
	// Subtract removes declarations.
	sub := u.Subtract(m)
	if sub.IsAssociation("resultlist") {
		t.Fatal("subtract did not remove")
	}
	if !sub.IsClass("player") {
		t.Fatal("subtract removed too much")
	}
}

func TestSubtractDropsDanglingIsa(t *testing.T) {
	s := universitySchema(t)
	m := NewSchema()
	_ = m.AddClass("PERSON", Tuple{Fields: []Field{
		{"name", Named{"NAME"}}, {"address", Named{"ADDRESS"}},
	}})
	sub := s.Subtract(m)
	for _, e := range sub.IsaEdges() {
		if e.Super == "person" {
			t.Fatal("dangling isa edge kept after class removal")
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := footballSchema(t)
	c := s.Clone()
	if err := c.AddDomain("EXTRA", Int); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup("extra"); ok {
		t.Fatal("clone shares decl map")
	}
}

func TestSchemaString(t *testing.T) {
	s := universitySchema(t)
	out := s.String()
	for _, want := range []string{"classes", "student isa person", "associations", "advises"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestNamesOfOrder(t *testing.T) {
	s := footballSchema(t)
	doms := s.NamesOf(DeclDomain)
	want := []string{"name", "role", "date", "score"}
	if strings.Join(doms, ",") != strings.Join(want, ",") {
		t.Fatalf("domains = %v, want %v", doms, want)
	}
}

func TestDeclKindAndKindStrings(t *testing.T) {
	for k, want := range map[DeclKind]string{
		DeclDomain: "domain", DeclClass: "class",
		DeclAssociation: "association", DeclFunction: "function",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if DeclKind(9).String() == "" {
		t.Error("unknown decl kind empty")
	}
	if Kind(99).String() == "" {
		t.Error("unknown type kind empty")
	}
}

func TestExpandDomainsErrors(t *testing.T) {
	s := NewSchema()
	_ = s.AddDomain("D", Named{"NOPE"})
	if _, err := s.ExpandDomains(Named{"D"}); err == nil {
		t.Fatal("undeclared reference expanded")
	}
	_ = s.AddFunction("F", Int, Int)
	if _, err := s.ExpandDomains(Named{"F"}); err == nil {
		t.Fatal("function expanded as type")
	}
	// Recursive domain detection.
	r := NewSchema()
	_ = r.AddDomain("A", Named{"B"})
	_ = r.AddDomain("B", Named{"A"})
	if _, err := r.ExpandDomains(Named{"A"}); err == nil {
		t.Fatal("recursive domain expanded")
	}
}

func TestExpandDomainsThroughAssociationAlias(t *testing.T) {
	s := footballSchema(t)
	// Expanding an association name yields its effective tuple structure.
	et, err := s.ExpandDomains(Named{"GAME"})
	if err != nil {
		t.Fatal(err)
	}
	tup, ok := et.(Tuple)
	if !ok || len(tup.Fields) != 4 {
		t.Fatalf("expanded game = %v", et)
	}
}

func TestEffectiveTupleErrors(t *testing.T) {
	s := NewSchema()
	_ = s.AddClass("C", Named{"MISSING"})
	if _, err := s.EffectiveTuple("C"); err == nil {
		t.Fatal("alias of undeclared name accepted")
	}
	if _, err := s.EffectiveTuple("nosuch"); err == nil {
		t.Fatal("effective tuple of undeclared name accepted")
	}
	r := NewSchema()
	_ = r.AddFunction("F", Int, Int)
	_ = r.AddClass("D", Named{"F"})
	if _, err := r.EffectiveTuple("D"); err == nil {
		t.Fatal("alias of function accepted")
	}
	e := NewSchema()
	_ = e.AddClass("E", Set{Int})
	if _, err := e.EffectiveTuple("E"); err == nil {
		t.Fatal("non-tuple class structure accepted")
	}
}
