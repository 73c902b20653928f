package instance

import (
	"fmt"
	"strings"
	"testing"

	"logres/internal/types"
	"logres/internal/value"
)

func universitySchema(t *testing.T) *types.Schema {
	t.Helper()
	s := types.NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddDomain("NAME", types.String))
	must(s.AddDomain("ADDRESS", types.String))
	must(s.AddClass("PERSON", types.Tuple{Fields: []types.Field{
		{Label: "name", Type: types.Named{Name: "NAME"}},
		{Label: "address", Type: types.Named{Name: "ADDRESS"}},
	}}))
	must(s.AddClass("SCHOOL", types.Tuple{Fields: []types.Field{
		{Label: "name", Type: types.Named{Name: "NAME"}},
	}}))
	must(s.AddClass("STUDENT", types.Tuple{Fields: []types.Field{
		{Label: "person", Type: types.Named{Name: "PERSON"}},
		{Label: "studschool", Type: types.Named{Name: "SCHOOL"}},
	}}))
	must(s.AddIsa("STUDENT", "", "PERSON"))
	must(s.AddAssociation("ENROLLED", types.Tuple{Fields: []types.Field{
		{Label: "student", Type: types.Named{Name: "STUDENT"}},
		{Label: "school", Type: types.Named{Name: "SCHOOL"}},
	}}))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func personValue(name, addr string) value.Tuple {
	return value.NewTuple(
		value.Field{Label: "name", Value: value.Str(name)},
		value.Field{Label: "address", Value: value.Str(addr)},
	)
}

func TestAddObjects(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, personValue("ann", "milan"))
	if objs := in.Objects("PERSON"); len(objs) != 1 || objs[0] != 1 {
		t.Fatalf("person objects = %v, want [#1]", objs)
	}
	if out := in.String(); !strings.Contains(out, `"ann"`) {
		t.Fatalf("o-value missing: %q", out)
	}
}

// The o-value of an object is shared by every class of its hierarchy:
// the components a subclass membership brings merge with those already
// stored, and each class renders its projection of the merged value.
func TestOValueSharedAcrossHierarchy(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, personValue("bob", "rome"))
	in.AddToClass("student", 1, value.NewTuple(
		value.Field{Label: "studschool", Value: value.Ref(value.NilOID)},
	))
	out := in.String()
	student := out[strings.Index(out, "student:"):]
	if !strings.Contains(student, `"bob"`) {
		t.Fatalf("merge lost name: %q", out)
	}
	if !strings.Contains(student, "studschool") {
		t.Fatalf("merge lost studschool: %q", out)
	}
}

func TestOValueOverwriteIsRightBiased(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, personValue("ann", "milan"))
	in.AddToClass("person", 1, personValue("ann", "torino"))
	if out := in.String(); !strings.Contains(out, `"torino"`) || strings.Contains(out, `"milan"`) {
		t.Fatalf("⊕ right bias lost: %q", out)
	}
}

func TestAssociationsAreSets(t *testing.T) {
	in := New(universitySchema(t))
	tup := value.NewTuple(
		value.Field{Label: "student", Value: value.Ref(1)},
		value.Field{Label: "school", Value: value.Ref(2)},
	)
	in.InsertTuple("enrolled", tup)
	in.InsertTuple("ENROLLED", tup)
	if got := in.Tuples("enrolled"); len(got) != 1 || got[0].Key() != tup.Key() {
		t.Fatalf("enrolled = %v, want the one tuple", got)
	}
}

func TestConsistencyHappyPath(t *testing.T) {
	in := New(universitySchema(t))
	school, stud := value.OID(1), value.OID(2)
	in.AddToClass("school", school, value.NewTuple(value.Field{Label: "name", Value: value.Str("polimi")}))
	sv := personValue("ann", "milan").With("studschool", value.Ref(school))
	in.AddToClass("person", stud, sv)
	in.AddToClass("student", stud, sv)
	in.InsertTuple("enrolled", value.NewTuple(
		value.Field{Label: "student", Value: value.Ref(stud)},
		value.Field{Label: "school", Value: value.Ref(school)},
	))
	if err := in.CheckConsistency(); err != nil {
		t.Fatalf("consistent instance rejected: %v", err)
	}
}

func TestConsistencyIsaContainmentViolation(t *testing.T) {
	in := New(universitySchema(t))
	sv := personValue("ann", "milan").With("studschool", value.Ref(value.NilOID))
	in.AddToClass("student", 1, sv) // not added to person
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "superclass") {
		t.Fatalf("isa containment violation missed: %v", err)
	}
}

// Several violations come back in one deterministic order — oid order
// within a clause — so a rejection reads the same on every run.
func TestConsistencyErrorTextDeterministic(t *testing.T) {
	in := New(universitySchema(t))
	sv := personValue("ann", "milan").With("studschool", value.Ref(value.NilOID))
	for _, o := range []value.OID{7, 3, 11, 5, 9} {
		in.AddToClass("student", o, sv) // not added to person
	}
	var want []string
	for _, o := range []value.OID{3, 5, 7, 9, 11} {
		want = append(want, fmt.Sprintf("instance: oid %s is in student but not in its superclass person", o))
	}
	for i := 0; i < 50; i++ {
		err := in.CheckConsistency()
		if err == nil || err.Error() != strings.Join(want, "\n") {
			t.Fatalf("call %d: got\n%v\nwant\n%s", i, err, strings.Join(want, "\n"))
		}
	}
}

func TestConsistencyHierarchyDisjointness(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, personValue("x", "y"))
	in.AddToClass("school", 1, value.NewTuple(value.Field{Label: "name", Value: value.Str("s")}))
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "common ancestor") {
		t.Fatalf("disjointness violation missed: %v", err)
	}
}

func TestConsistencyDanglingAssociationRef(t *testing.T) {
	in := New(universitySchema(t))
	in.InsertTuple("enrolled", value.NewTuple(
		value.Field{Label: "student", Value: value.Ref(99)},
		value.Field{Label: "school", Value: value.Ref(98)},
	))
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("dangling reference missed: %v", err)
	}
}

func TestConsistencyNilInAssociationRejected(t *testing.T) {
	in := New(universitySchema(t))
	school := value.OID(1)
	in.AddToClass("school", school, value.NewTuple(value.Field{Label: "name", Value: value.Str("s")}))
	in.InsertTuple("enrolled", value.NewTuple(
		value.Field{Label: "student", Value: value.Ref(value.NilOID)},
		value.Field{Label: "school", Value: value.Ref(school)},
	))
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil oid in association accepted: %v", err)
	}
}

func TestConsistencyNilClassRefAllowed(t *testing.T) {
	in := New(universitySchema(t))
	sv := personValue("ann", "milan").With("studschool", value.Ref(value.NilOID))
	in.AddToClass("person", 1, sv)
	in.AddToClass("student", 1, sv)
	if err := in.CheckConsistency(); err != nil {
		t.Fatalf("nil class-to-class reference rejected: %v", err)
	}
}

func TestConsistencyBadOValueType(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, value.NewTuple(
		value.Field{Label: "name", Value: value.Int(3)}, // wrong type
		value.Field{Label: "address", Value: value.Str("x")},
	))
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "expected string") {
		t.Fatalf("ill-typed o-value accepted: %v", err)
	}
}

func TestProject(t *testing.T) {
	eff := types.Tuple{Fields: []types.Field{
		{Label: "a", Type: types.Int}, {Label: "b", Type: types.String},
	}}
	v := value.NewTuple(
		value.Field{Label: "b", Value: value.Str("x")},
		value.Field{Label: "a", Value: value.Int(1)},
		value.Field{Label: "extra", Value: value.Int(9)},
	)
	p := Project(v, eff)
	if p.Len() != 2 {
		t.Fatalf("projection kept extra fields: %v", p)
	}
	if p.Field(0).Label != "a" || p.Field(1).Label != "b" {
		t.Fatalf("projection order wrong: %v", p)
	}
	// Missing component projects to null.
	p2 := Project(value.NewTuple(), eff)
	if v0 := p2.Field(0).Value; v0.Kind() != value.KindNull {
		t.Fatalf("missing component = %v, want null", v0)
	}
}

func TestStringRendering(t *testing.T) {
	in := New(universitySchema(t))
	in.AddToClass("person", 1, personValue("ann", "milan"))
	out := in.String()
	if !strings.Contains(out, "person:") || !strings.Contains(out, `"ann"`) {
		t.Fatalf("String() = %q", out)
	}
}

func TestCheckRefsThroughCollections(t *testing.T) {
	// Class references nested inside sets and sequences are checked.
	s := types.NewSchema()
	_ = s.AddClass("ITEM", types.Tuple{Fields: []types.Field{{Label: "k", Type: types.Int}}})
	_ = s.AddClass("BOX", types.Tuple{Fields: []types.Field{
		{Label: "items", Type: types.Set{Elem: types.Named{Name: "ITEM"}}},
		{Label: "order", Type: types.Sequence{Elem: types.Named{Name: "ITEM"}}},
		{Label: "bag", Type: types.Multiset{Elem: types.Named{Name: "ITEM"}}},
	}})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	in := New(s)
	in.AddToClass("box", 1, value.NewTuple(
		value.Field{Label: "items", Value: value.NewSet(value.Ref(77))},
		value.Field{Label: "order", Value: value.NewSequence(value.Ref(77))},
		value.Field{Label: "bag", Value: value.NewMultiset(value.Ref(77))},
	))
	err := in.CheckConsistency()
	if err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("nested dangling references accepted: %v", err)
	}
}
