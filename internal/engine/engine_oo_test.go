package engine

import (
	"fmt"
	"strings"
	"testing"

	"logres/internal/value"
)

// Tests of the object-oriented half of the rule language: oid invention
// (Definitions 7–8), oid unification across generalization hierarchies
// (§3.1 cases a/b), isa propagation, object sharing, and o-value updates.

const uniSchema = `
domains
  NAME = string;
  COURSE = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, school: string);
  PROFESSOR = (PERSON, course: COURSE);
  STUDENT isa PERSON;
  PROFESSOR isa PERSON;
associations
  ADVISES = (professor: PROFESSOR, student: STUDENT);
  ENROLLING = (name: NAME);
`

func TestInventionCreatesObjects(t *testing.T) {
	p := build(t, uniSchema, `
enrolling(name: "ann").
enrolling(name: "bob").
person(self: X, name: N) <- enrolling(name: N).
`)
	f := run(t, p)
	if got := f.Size("person"); got != 2 {
		t.Fatalf("person objects = %d, want 2", got)
	}
	// Distinct oids.
	oids := map[value.OID]bool{}
	for _, fact := range f.Facts("person") {
		if fact.OID.IsNil() {
			t.Fatal("invented nil oid")
		}
		oids[fact.OID] = true
	}
	if len(oids) != 2 {
		t.Fatalf("oids = %v", oids)
	}
}

func TestInventionIsIdempotentAcrossSteps(t *testing.T) {
	// The VD condition of Definition 7: once an object satisfying the
	// head exists, the rule does not re-invent. Without it this program
	// would create objects forever.
	p := build(t, uniSchema, `
enrolling(name: "ann").
person(self: X, name: N) <- enrolling(name: N).
enrolling(name: M) <- person(name: M).
`)
	f := run(t, p)
	if got := f.Size("person"); got != 1 {
		t.Fatalf("person objects = %d, want 1", got)
	}
}

func TestInventionWithoutSelfVar(t *testing.T) {
	// A class head with only component arguments invents an object per
	// distinct valuation (existential quantification).
	p := build(t, uniSchema, `
enrolling(name: "ann").
person(name: N) <- enrolling(name: N).
`)
	f := run(t, p)
	if got := f.Size("person"); got != 1 {
		t.Fatalf("person objects = %d, want 1", got)
	}
}

func TestIsaPropagationGeneratedRules(t *testing.T) {
	// Adding a student must propagate membership (same oid) to person.
	p := build(t, uniSchema, `
enrolling(name: "ann").
student(self: X, name: N, school: "polimi") <- enrolling(name: N).
`)
	f := run(t, p)
	if f.Size("student") != 1 || f.Size("person") != 1 {
		t.Fatalf("student=%d person=%d", f.Size("student"), f.Size("person"))
	}
	s := f.Facts("student")[0]
	pe := f.Facts("person")[0]
	if s.OID != pe.OID {
		t.Fatalf("isa propagation changed the oid: %v vs %v", s.OID, pe.OID)
	}
	if got, _ := pe.Tuple.Get("name"); got != value.Str("ann") {
		t.Fatalf("person projection = %v", pe.Tuple)
	}
	// The person projection must not contain the school component.
	if _, has := pe.Tuple.Get("school"); has {
		t.Fatalf("person fact leaked subclass attributes: %v", pe.Tuple)
	}
}

func TestSameHierarchyTupleVarSharesOID(t *testing.T) {
	// §3.1 case b: student(X) <- person(X) unifies the oids (and the rule
	// is legal because the classes are in one hierarchy).
	p := build(t, uniSchema, `
enrolling(name: "ann").
person(self: X, name: N) <- enrolling(name: N).
student(X) <- person(X).
`)
	f := run(t, p)
	if f.Size("student") != 1 {
		t.Fatalf("student = %d", f.Size("student"))
	}
	if f.Facts("student")[0].OID != f.Facts("person")[0].OID {
		t.Fatal("case b must unify oids")
	}
}

func TestDifferentHierarchyCopyInventsNewOID(t *testing.T) {
	// §3.1 case a: compatible classes in different hierarchies — the rule
	// C1(Y) <- C2(X) copies values under a fresh oid.
	src := `
classes
  A = (v: string);
  B = (v: string);
associations SEEDS = (v: string);
`
	p := build(t, src, `
seeds(v: "x").
a(self: X, v: V) <- seeds(v: V).
b(Y) <- a(X).
`)
	f := run(t, p)
	if f.Size("a") != 1 || f.Size("b") != 1 {
		t.Fatalf("a=%d b=%d", f.Size("a"), f.Size("b"))
	}
	av, bv := f.Facts("a")[0], f.Facts("b")[0]
	if av.OID == bv.OID {
		t.Fatal("case a must invent a fresh oid")
	}
	if x, _ := av.Tuple.Get("v"); x != value.Str("x") {
		t.Fatalf("a value = %v", av.Tuple)
	}
	if x, _ := bv.Tuple.Get("v"); x != value.Str("x") {
		t.Fatalf("case a must copy values: %v", bv.Tuple)
	}
}

func TestCrossHierarchySameVarRejected(t *testing.T) {
	// §3.1: C1(X) <- C2(X) is incorrect when the classes do not belong to
	// one generalization hierarchy.
	src := `
classes
  A = (v: string);
  B = (v: string);
`
	if _, err := tryBuild(src, `b(X) <- a(X).`, DefaultOptions()); err == nil ||
		!strings.Contains(err.Error(), "hierarch") {
		t.Fatalf("cross-hierarchy oid sharing accepted: %v", err)
	}
}

func TestExample34InterestingPair(t *testing.T) {
	// The interesting-pair example: routing through an association first
	// eliminates duplicates, so the class IP gets one object per distinct
	// pair even when several (E, M) witnesses exist.
	src := `
domains NAME = string;
associations
  EMP = (ename: NAME, works: string);
  DEPT = (dname: string, depmgr: NAME);
  PAIR = (employee: NAME, manager: NAME);
classes
  IP = PAIR;
`
	p := build(t, src, `
emp(ename: "smith", works: "d1").
emp(ename: "smith", works: "d2").
dept(dname: "d1", depmgr: "smith").
dept(dname: "d2", depmgr: "smith").

pair(employee: E, manager: M) <- emp(ename: E, works: D), dept(dname: D, depmgr: M), emp(ename: M).
ip(self: X, C) <- pair(C).
`)
	f := run(t, p)
	// Both (smith,d1) and (smith,d2) witness the same pair: the
	// association deduplicates, so exactly one IP object is created.
	if f.Size("pair") != 1 {
		t.Fatalf("pair = %v", tuples(f, "pair"))
	}
	if f.Size("ip") != 1 {
		t.Fatalf("ip objects = %d, want 1", f.Size("ip"))
	}
	ip := f.Facts("ip")[0]
	if e, _ := ip.Tuple.Get("employee"); e != value.Str("smith") {
		t.Fatalf("ip value = %v", ip.Tuple)
	}
}

func TestInventionPerValuationWithoutAssociation(t *testing.T) {
	// Without the association detour, invention happens once per
	// *distinct* valuation-domain element: two distinct department
	// witnesses still yield one object per distinct component vector
	// within a step only if the valuations coincide. Here they differ
	// (D is part of the body but not of the head), producing the
	// duplicate objects the paper warns about — inside a single step the
	// VD check only consults the previous state.
	src := `
domains NAME = string;
associations
  EMP = (ename: NAME, works: string);
  DEPT = (dname: string, depmgr: NAME);
classes
  IP2 = (employee: NAME, manager: NAME);
`
	p := build(t, src, `
emp(ename: "smith", works: "d1").
emp(ename: "smith", works: "d2").
dept(dname: "d1", depmgr: "smith").
dept(dname: "d2", depmgr: "smith").
ip2(employee: E, manager: M) <- emp(ename: E, works: D), dept(dname: D, depmgr: M), emp(ename: M).
`)
	f := run(t, p)
	if got := f.Size("ip2"); got != 2 {
		t.Fatalf("ip2 objects = %d, want 2 (one per valuation-domain element)", got)
	}
}

func TestOValueUpdateThroughCompose(t *testing.T) {
	// A class head with a bound self updates the object's o-value (the ⊕
	// right bias).
	src := `
classes C = (v: integer, w: integer);
associations SEED = (v: integer);
`
	schema := schemaOf(t, src)
	edb := seedEDB(t, schema, `seed(v: 1).`)
	// Note: the inventing rule's head must not mention w — updating w
	// would re-enable its VD check and it would invent forever (a real
	// property of the Appendix-B semantics: invention plus o-value
	// mutation of the same components does not terminate).
	p2 := build(t, src, `
c(self: X, v: V) <- seed(v: V).
c(self: X, w: 9) <- c(self: X, v: 1).
`)
	counter := int64(0)
	f, err := p2.Run(edb, &counter)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("c") != 1 {
		t.Fatalf("c = %d objects", f.Size("c"))
	}
	fact := f.Facts("c")[0]
	if w, _ := fact.Tuple.Get("w"); w != value.Int(9) {
		t.Fatalf("o-value not updated: %v", fact.Tuple)
	}
	if v, _ := fact.Tuple.Get("v"); v != value.Int(1) {
		t.Fatalf("unmentioned component lost in update: %v", fact.Tuple)
	}
}

func TestObjectSharingThroughComponents(t *testing.T) {
	// school objects shared by professor objects through oid components.
	src := `
domains NAME = string;
classes
  SCHOOL = (sname: NAME);
  PROFESSOR = (pname: NAME, profschool: SCHOOL);
associations
  STAFF = (pname: NAME, sname: NAME);
  SEEDS = (sname: NAME);
  COLLEAGUES = (a: NAME, b: NAME);
`
	p := build(t, src, `
seeds(sname: "polimi").
staff(pname: "rossi", sname: "polimi").
staff(pname: "bianchi", sname: "polimi").
school(self: S, sname: N) <- seeds(sname: N).
professor(self: P, pname: N, profschool: S) <- staff(pname: N, sname: SN), school(self: S, sname: SN).
colleagues(a: N1, b: N2) <- professor(pname: N1, profschool: S), professor(pname: N2, profschool: S), N1 != N2.
`)
	f := run(t, p)
	if f.Size("school") != 1 || f.Size("professor") != 2 {
		t.Fatalf("school=%d professor=%d", f.Size("school"), f.Size("professor"))
	}
	if f.Size("colleagues") != 2 {
		t.Fatalf("colleagues = %v", tuples(f, "colleagues"))
	}
	// Both professors reference the same school oid.
	var refs []value.Value
	for _, fact := range f.Facts("professor") {
		r, _ := fact.Tuple.Get("profschool")
		refs = append(refs, r)
	}
	if !value.Equal(refs[0], refs[1]) {
		t.Fatalf("school not shared: %v", refs)
	}
}

func TestSelfVariableJoin(t *testing.T) {
	// Example 3.1's equivalent formulations: joining through tuple
	// variables and through explicit self variables give the same pairs.
	p := build(t, uniSchema, `
enrolling(name: "ann").
enrolling(name: "bob").
student(self: X, name: N, school: "s") <- enrolling(name: N).
professor(self: X, name: N, course: "db") <- enrolling(name: N).
advises(professor: X1, student: Y1) <- professor(self: X1, name: X), student(self: Y1, name: X).
`)
	f := run(t, p)
	if f.Size("advises") != 2 {
		t.Fatalf("advises = %v", tuples(f, "advises"))
	}
	// Components hold oids of the respective objects.
	for _, fact := range f.Facts("advises") {
		prof, _ := fact.Tuple.Get("professor")
		if _, ok := prof.(value.Ref); !ok {
			t.Fatalf("professor component is %T", prof)
		}
	}
}

func TestTupleVarJoinEquivalentToSelfJoin(t *testing.T) {
	p := build(t, uniSchema, `
enrolling(name: "ann").
student(self: X, name: N, school: "s") <- enrolling(name: N).
professor(self: X, name: N, course: "db") <- enrolling(name: N).
advises(X1, Y1) <- professor(X1, name: X), student(Y1, name: X).
`)
	f := run(t, p)
	if f.Size("advises") != 1 {
		t.Fatalf("advises = %v", tuples(f, "advises"))
	}
}

func TestPartialAttributeMatching(t *testing.T) {
	// "Not all the arguments of a predicate need to be present."
	p := build(t, uniSchema, `
enrolling(name: "ann").
student(self: X, name: N, school: "polimi") <- enrolling(name: N).
enrolling(name: S) <- student(school: S).
`)
	f := run(t, p)
	found := false
	for _, s := range tuples(f, "enrolling") {
		if s == `name="polimi"` {
			found = true
		}
	}
	if !found {
		t.Fatalf("partial match failed: %v", tuples(f, "enrolling"))
	}
}

func TestNilOIDLegalInClassComponent(t *testing.T) {
	src := `
domains NAME = string;
classes
  SCHOOL = (sname: NAME);
  PROF = (pname: NAME, profschool: SCHOOL);
associations SEEDS = (pname: NAME);
`
	p := build(t, src, `
seeds(pname: "rossi").
prof(self: P, pname: N, profschool: null) <- seeds(pname: N).
`)
	f := run(t, p)
	if f.Size("prof") != 1 {
		t.Fatalf("prof = %d", f.Size("prof"))
	}
}

func TestDeepHierarchyPropagation(t *testing.T) {
	src := `
classes
  A = (v: string);
  B = (A, w: string);
  C = (B, u: string);
  B isa A;
  C isa B;
associations SEEDS = (v: string);
`
	p := build(t, src, `
seeds(v: "x").
c(self: O, v: V, w: "w", u: "u") <- seeds(v: V).
`)
	f := run(t, p)
	if f.Size("a") != 1 || f.Size("b") != 1 || f.Size("c") != 1 {
		t.Fatalf("a=%d b=%d c=%d", f.Size("a"), f.Size("b"), f.Size("c"))
	}
	oid := f.Facts("c")[0].OID
	if f.Facts("a")[0].OID != oid || f.Facts("b")[0].OID != oid {
		t.Fatal("hierarchy propagation broke oid sharing")
	}
}

func TestClassDeletionRemovesMembership(t *testing.T) {
	src := `
classes C = (v: integer);
associations
  SEED = (v: integer);
  KILL = (v: integer);
`
	schema := schemaOf(t, src)
	edb := seedEDB(t, schema, `seed(v: 1). seed(v: 2). kill(v: 2).`)
	p := build(t, src, `
c(v: V) <- seed(v: V), not kill(v: V).
not c(v: V) <- kill(v: V).
`)
	counter := int64(0)
	f, err := p.Run(edb, &counter)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("c") != 1 {
		t.Fatalf("c = %d objects", f.Size("c"))
	}
	if v, _ := f.Facts("c")[0].Tuple.Get("v"); v != value.Int(1) {
		t.Fatalf("wrong object survived: %v", f.Facts("c")[0])
	}
}

// A class deletion head whose tuple variable is bound to an association
// tuple deletes the objects whose o-value is that tuple projected onto
// the class's type, as insertion compares it, and no other object.
func TestClassDeletionByAssociationTuple(t *testing.T) {
	src := `
domains NAME = string;
associations
  PAIR = (employee: NAME, manager: NAME);
  GONE = (employee: NAME, manager: NAME);
classes
  IP = PAIR;
`
	edb := seedEDB(t, schemaOf(t, src), `
pair(employee: "ann", manager: "max").
pair(employee: "bob", manager: "max").
gone(employee: "ann", manager: "max").
ip(self: X, C) <- pair(C).
`)
	if n := edb.Size("ip"); n != 2 {
		t.Fatalf("ip = %d objects before the deletion, want 2", n)
	}
	for name, opts := range map[string]Options{"defaults": DefaultOptions(), "row oracle": rowOracle()} {
		p, err := tryBuild(src, `not ip(C) <- gone(C).`, opts)
		if err != nil {
			t.Fatal(err)
		}
		counter := int64(edb.MaxOID())
		f, err := p.Run(edb, &counter)
		if err != nil {
			t.Fatal(err)
		}
		if got := tuples(f, "ip"); len(got) != 1 || got[0] != `employee="bob",manager="max"` {
			t.Fatalf("%s: ip = %v, want only bob's pair", name, got)
		}
	}
}

// stepDeltas is one step of p's rules over f, as oneStep applies them
// (with reemit, as the non-inflationary operator does): its Δ+ and Δ−.
func stepDeltas(t *testing.T, p *Program, f *FactSet, reemit bool) (dplus, dminus *FactSet) {
	t.Helper()
	counter := int64(f.MaxOID())
	c := &evalCtx{p: p, f: f, counter: &counter, reemit: reemit}
	dplus, dminus = NewFactSet(), NewFactSet()
	if err := c.applyRules(p.rules, dplus, dminus); err != nil {
		t.Fatal(err)
	}
	return dplus, dminus
}

// assertLookupMatchesWalk requires one step of p over f to give the same
// Δ+ and Δ− through the lookups as when every lookup walks its whole
// predicate, under the inflationary and the non-inflationary operator.
// It returns the inflationary step's Δ+ and Δ−.
func assertLookupMatchesWalk(t *testing.T, p *Program, f *FactSet) (dplus, dminus *FactSet) {
	t.Helper()
	for _, reemit := range []bool{true, false} {
		dplus, dminus = stepDeltas(t, p, f, reemit)
		walkAll = true
		wplus, wminus := stepDeltas(t, p, f, reemit)
		walkAll = false
		if !dplus.Equal(wplus) || !dminus.Equal(wminus) {
			t.Fatalf("reemit=%v: lookup Δ+ %s Δ− %s\nwalk Δ+ %s Δ− %s", reemit, dump(dplus), dump(dminus), dump(wplus), dump(wminus))
		}
	}
	return dplus, dminus
}

// Every head form that narrows its predicate gives, through the lookup,
// the Δ+ or Δ− a walk of the whole predicate gives. Objects 2 and 10
// agree on every component, and their v and w buckets were built before
// 10 was added, so the buckets yield 2 first while key order ("&10" <
// "&2") puts 10 first: a re-emission takes the walk's first.
func TestHeadLookupMatchesWalk(t *testing.T) {
	const src = `
domains NAME = string;
associations
  PAIR = (employee: NAME, manager: NAME);
  GONE = (employee: NAME, manager: NAME);
  EDGE = (src: integer, dst: integer);
  CUT = (src: integer, dst: integer);
  KILL = (v: integer);
  SEED = (v: integer, w: integer);
classes
  C = (v: integer, w: integer);
  D = (v: integer, w: integer);
  IP = PAIR;
associations
  REF = (obj: C);
`
	ints := func(l1 string, v1 int64, l2 string, v2 int64) value.Tuple {
		return value.NewTuple(value.Field{Label: l1, Value: value.Int(v1)}, value.Field{Label: l2, Value: value.Int(v2)})
	}
	names := func(e, m string) value.Tuple {
		return value.NewTuple(value.Field{Label: "employee", Value: value.Str(e)}, value.Field{Label: "manager", Value: value.Str(m)})
	}
	edb := func() *FactSet {
		f := NewFactSet()
		for _, fact := range []Fact{
			{Pred: "c", IsClass: true, OID: 2, Tuple: ints("v", 1, "w", 1)},
			{Pred: "c", IsClass: true, OID: 3, Tuple: ints("v", 2, "w", 5)},
			{Pred: "c", IsClass: true, OID: 4, Tuple: ints("v", 3, "w", 1)},
			{Pred: "d", IsClass: true, OID: 20, Tuple: ints("v", 1, "w", 1)},
			{Pred: "ip", IsClass: true, OID: 30, Tuple: names("ann", "max")},
			{Pred: "pair", Tuple: names("ann", "max")},
			{Pred: "pair", Tuple: names("bob", "max")},
			{Pred: "gone", Tuple: names("ann", "max")},
			{Pred: "kill", Tuple: value.NewTuple(value.Field{Label: "v", Value: value.Int(1)})},
			{Pred: "ref", Tuple: value.NewTuple(value.Field{Label: "obj", Value: value.Ref(3)})},
			{Pred: "seed", Tuple: ints("v", 1, "w", 1)},
			{Pred: "seed", Tuple: ints("v", 9, "w", 9)},
			edgeFact(1, 2), edgeFact(1, 3), edgeFact(2, 3), edgeFact(4, 1),
			{Pred: "cut", Tuple: ints("src", 1, "dst", 3)},
			{Pred: "cut", Tuple: ints("src", 7, "dst", 7)},
		} {
			f.Add(fact)
		}
		f.FactsByComponent("c", "v", value.Int(1))
		f.FactsByComponent("c", "w", value.Int(1))
		f.Add(Fact{Pred: "c", IsClass: true, OID: 10, Tuple: ints("v", 1, "w", 1)})
		return f
	}
	cases := []struct {
		name, rule  string
		plus, minus int // the inflationary step's Δ+ and Δ− sizes
	}{
		{"delete/bound self", `not c(self: X) <- c(self: X, v: V), kill(v: V).`, 0, 2},
		{"delete/tuple variable bound to an object", `not c(O) <- c(O, v: V), kill(v: V).`, 0, 2},
		{"delete/tuple variable bound to an oid value", `not c(X) <- ref(obj: X).`, 0, 1},
		{"delete/tuple variable bound to an association tuple", `not ip(C) <- gone(C).`, 0, 1},
		{"delete/class components", `not c(w: W) <- kill(v: W).`, 0, 3},
		{"delete/association, every label fixed", `not edge(src: X, dst: Y) <- cut(src: X, dst: Y).`, 0, 1},
		{"delete/association, some labels fixed", `not edge(src: X) <- kill(v: X).`, 0, 2},
		{"delete/association, no label fixed", `not edge() <- kill(v: 1).`, 0, 4},
		{"delete/association tuple variable", `not edge(E) <- cut(E).`, 0, 1},
		{"insert/bound self", `c(self: X, w: 0) <- c(self: X, v: V), kill(v: V).`, 2, 0},
		{"invent/suppressed by specified components", `c(v: V, w: W) <- seed(v: V, w: W).`, 1, 0},
		{"invent/suppressed by a copied source", `d(Y) <- c(X).`, 2, 0},
		{"invent/suppressed by an association tuple", `ip(self: X, C) <- pair(C).`, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tryBuild(src, tc.rule, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			plus, minus := assertLookupMatchesWalk(t, p, edb())
			if plus.TotalSize() != tc.plus || minus.TotalSize() != tc.minus {
				t.Fatalf("Δ+ %s Δ− %s: want %d and %d facts", dump(plus), dump(minus), tc.plus, tc.minus)
			}
		})
	}
}

func TestToInstanceRoundTrip(t *testing.T) {
	p := build(t, uniSchema, `
enrolling(name: "ann").
student(self: X, name: N, school: "polimi") <- enrolling(name: N).
`)
	f := run(t, p)
	in := ToInstance(f, p.Schema(), int64(f.MaxOID()))
	if err := in.CheckConsistency(); err != nil {
		t.Fatalf("derived instance inconsistent: %v", err)
	}
	// ToInstance loses no fact: the rendering holds one line per class
	// membership and association tuple, each fact's line (a class fact's
	// o-value projected on its class) under its predicate.
	lines := map[string]bool{}
	section := ""
	for _, line := range strings.Split(strings.TrimSuffix(in.String(), "\n"), "\n") {
		if head, ok := strings.CutSuffix(line, ":"); ok && !strings.HasPrefix(line, " ") {
			section = head
			continue
		}
		lines[section+" "+strings.TrimSpace(line)] = true
	}
	if len(lines) != f.TotalSize() {
		t.Fatalf("the instance renders %d members, the fact set holds %d facts:\n%s", len(lines), f.TotalSize(), in)
	}
	for _, fact := range f.AppendAll(nil) {
		want := fmt.Sprintf("%s %s", fact.Pred, fact.Tuple)
		if fact.IsClass {
			want = fmt.Sprintf("%s %s %s", fact.Pred, fact.OID, fact.Tuple)
		}
		if !lines[want] {
			t.Fatalf("the instance lost %s:\n%s", want, in)
		}
	}
}

// An invented oid is a function of its valuation (Definitions 7–8), not
// of the order the body's buckets yield valuations in. Here the rule
// reads EDGE through its src bucket; in one input that bucket was built
// before the smaller edges were added, so it holds them last, and in the
// other every edge was added before the bucket was built, so it holds
// them in key order. Both number HOP's objects alike.
func TestInventionIgnoresBucketHistory(t *testing.T) {
	const schema = `
classes
  HOP = (from: integer, to: integer);
associations
  EDGE = (src: integer, dst: integer);
  SEED = (n: integer);
`
	const rules = `hop(self: H, from: X, to: Y) <- seed(n: X), edge(src: X, dst: Y).`
	seed := Fact{Pred: "seed", Tuple: value.NewTuple(value.Field{Label: "n", Value: value.Int(1)})}
	built := NewFactSet()
	built.Add(seed)
	for dst := 5; dst < 10; dst++ {
		built.Add(edgeFact(1, dst))
	}
	if n := len(built.FactsByComponent("edge", "src", value.Int(1))); n != 5 {
		t.Fatalf("bucket holds %d edges, want 5", n)
	}
	for dst := 0; dst < 5; dst++ {
		built.Add(edgeFact(1, dst))
	}
	fresh := NewFactSet()
	for dst := 9; dst >= 0; dst-- {
		fresh.Add(edgeFact(1, dst))
	}
	fresh.Add(seed)

	for name, opts := range map[string]Options{"defaults": DefaultOptions(), "row oracle": rowOracle()} {
		p, err := tryBuild(schema, rules, opts)
		if err != nil {
			t.Fatal(err)
		}
		c1, c2 := int64(0), int64(0)
		got, err := p.Run(built, &c1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(fresh, &c2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size("hop") != 10 || !got.Equal(want) || c1 != c2 {
			t.Fatalf("%s: oids depend on bucket history:\n%s\nvs\n%s", name, dump(got), dump(want))
		}
	}
}
