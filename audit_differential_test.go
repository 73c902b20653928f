package logres

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/instance"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

// The full Definition 4 audit reads the derived fact set in place with
// the schema's compiled check (module.CheckInstance). It must report
// exactly what the audit of the instance engine.ToInstance builds from
// the set reports, and what the audit reported before its check was
// compiled (legacyAudit): the same error text, nil included, in the same
// order.

// errText is err's text, or "<nil>".
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// auditMatches fails the test unless the fact-set audit of f over s reads
// as the instance audit and the legacy audit do, and returns its text.
func auditMatches(t testing.TB, where string, s *types.Schema, f *engine.FactSet) string {
	t.Helper()
	got := errText(module.CheckInstance(s, f))
	if want := errText(engine.ToInstance(f, s, 0).CheckConsistency()); got != want {
		t.Fatalf("%s: the fact-set audit says\n%s\nthe instance audit\n%s", where, got, want)
	}
	if want := errText(legacyAudit(s, f)); got != want {
		t.Fatalf("%s: the fact-set audit says\n%s\nthe legacy audit\n%s", where, got, want)
	}
	return got
}

// auditMatchesPublished holds the audit of db's published state to the
// instance and legacy audits. A derivation the wall-clock budget stops
// is not compared.
func auditMatchesPublished(t testing.TB, where string, db *Database) {
	t.Helper()
	s := db.snap.Load()
	f, err := s.derived()
	var be *BudgetError
	if errors.As(err, &be) && be.Axis == AxisDeadline {
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	auditMatches(t, where, s.st.S, f)
}

// legacyAudit is Definition 4's audit as it ran before its check was
// compiled: over maps built from f as engine.ToInstance builds its
// instance, each o-value projected on its class's effective type and
// each type expanded per value.
func legacyAudit(s *types.Schema, f *engine.FactSet) error {
	classes := map[string]map[value.OID]bool{}
	ovalues := map[value.OID]value.Tuple{}
	assocs := map[string][]value.Tuple{}
	for _, p := range f.Preds() {
		if s.IsFunction(p) {
			continue
		}
		c := types.Canon(p)
		for _, fact := range f.Facts(p) {
			if !s.IsClass(p) {
				assocs[c] = append(assocs[c], fact.Tuple)
				continue
			}
			if classes[c] == nil {
				classes[c] = map[value.OID]bool{}
			}
			classes[c][fact.OID] = true
			v, ok := ovalues[fact.OID]
			if !ok {
				ovalues[fact.OID] = fact.Tuple
				continue
			}
			for _, fl := range fact.Tuple.Fields() {
				v = v.With(fl.Label, fl.Value)
			}
			ovalues[fact.OID] = v
		}
	}
	objects := func(c string) []value.OID {
		var out []value.OID
		for o := range classes[c] {
			out = append(out, o)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	member := func(class string, oid value.OID) bool { return classes[class][oid] }

	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("instance: "+format, args...))
	}
	for _, e := range s.IsaEdges() {
		for _, o := range objects(e.Sub) {
			if !classes[e.Super][o] {
				report("oid %s is in %s but not in its superclass %s", o, e.Sub, e.Super)
			}
		}
	}
	owner := map[value.OID]string{}
	for _, c := range s.NamesOf(types.DeclClass) {
		for _, o := range objects(c) {
			if prev, ok := owner[o]; ok && prev != c && !s.SameHierarchy(prev, c) {
				report("oid %s belongs to %s and %s, which share no common ancestor", o, prev, c)
			} else {
				owner[o] = c
			}
		}
	}
	for _, c := range s.NamesOf(types.DeclClass) {
		eff, err := s.EffectiveTuple(c)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, o := range objects(c) {
			proj := instance.Project(ovalues[o], eff)
			if err := s.CheckValue(eff, proj, types.NilAllowed); err != nil {
				report("o-value of %s in class %s: %v", o, c, err)
				continue
			}
			legacyRefs(s, member, c, eff, proj, true, report)
		}
	}
	for _, a := range s.NamesOf(types.DeclAssociation) {
		eff, err := s.EffectiveTuple(a)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, t := range assocs[a] { // f.Facts gives them in key order
			proj := instance.Project(t, eff)
			if err := s.CheckValue(eff, proj, types.NilForbidden); err != nil {
				report("tuple of %s: %v", a, err)
				continue
			}
			legacyRefs(s, member, a, eff, proj, false, report)
		}
	}
	return errors.Join(errs...)
}

// legacyRefs is the reference walk of legacyAudit, expanding each domain
// it meets.
func legacyRefs(s *types.Schema, member instance.Membership, owner string, t types.Type, v value.Value, nilOK bool, report func(string, ...any)) {
	switch x := t.(type) {
	case types.Named:
		if !s.IsClass(x.Name) {
			if et, err := s.ExpandDomains(x); err == nil {
				legacyRefs(s, member, owner, et, v, nilOK, report)
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
		if tv, ok := v.(value.Tuple); ok {
			for _, f := range x.Fields {
				if fv, found := tv.Get(f.Label); found {
					legacyRefs(s, member, owner, f.Type, fv, nilOK, report)
				}
			}
		}
	case types.Set:
		if sv, ok := v.(value.Set); ok {
			for _, e := range sv.Elems() {
				legacyRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	case types.Multiset:
		if mv, ok := v.(value.Multiset); ok {
			for _, e := range mv.Elems() {
				legacyRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	case types.Sequence:
		if qv, ok := v.(value.Sequence); ok {
			for _, e := range qv.Elems() {
				legacyRefs(s, member, owner, x.Elem, e, nilOK, report)
			}
		}
	}
}

// universitySource is the schema of internal/instance's audit tests, with
// a second hierarchy (ROOM) apart from PERSON's and a class whose
// references sit inside collections.
const universitySource = `
domains
  NAME = string;
  ADDRESS = string;
classes
  PERSON = (name: NAME, address: ADDRESS);
  SCHOOL = (name: NAME);
  STUDENT = (PERSON, studschool: SCHOOL);
  STUDENT isa PERSON;
  ROOM = (name: NAME, seats: {PERSON}, queue: <STUDENT>, bag: [SCHOOL]);
associations
  ENROLLED = (student: STUDENT, school: SCHOOL);
`

func universityTestSchema(t testing.TB) *types.Schema {
	t.Helper()
	m, err := parser.ParseModule(universitySource)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	return m.Schema
}

func str(s string) value.Str { return value.Str(s) }

func tuple(kv ...any) value.Tuple {
	var fs []value.Field
	for i := 0; i < len(kv); i += 2 {
		fs = append(fs, value.Field{Label: kv[i].(string), Value: kv[i+1].(value.Value)})
	}
	return value.NewTuple(fs...)
}

func classFact(class string, o value.OID, v value.Tuple) engine.Fact {
	return engine.Fact{Pred: class, IsClass: true, OID: o, Tuple: v}
}

func assocFact(assoc string, v value.Tuple) engine.Fact {
	return engine.Fact{Pred: assoc, Tuple: v}
}

// The violation cases of internal/instance's audit tests, as derived fact
// sets, each with the text the audit must report.
func TestFactSetAuditMatchesInstanceAudit(t *testing.T) {
	s := universityTestSchema(t)
	ann := tuple("name", str("ann"), "address", str("milan"))
	annAt := func(school value.OID) value.Tuple { return ann.With("studschool", value.Ref(school)) }
	cases := []struct {
		name  string
		facts []engine.Fact
		want  string
	}{
		{name: "happy path", want: "<nil>", facts: []engine.Fact{
			classFact("school", 1, tuple("name", str("polimi"))),
			classFact("person", 2, annAt(1)),
			classFact("student", 2, annAt(1)),
			assocFact("enrolled", tuple("student", value.Ref(2), "school", value.Ref(1))),
		}},
		{name: "isa containment, in oid order",
			want: "instance: oid &3 is in student but not in its superclass person\n" +
				"instance: oid &5 is in student but not in its superclass person\n" +
				"instance: oid &7 is in student but not in its superclass person",
			facts: []engine.Fact{
				classFact("student", 7, annAt(value.NilOID)),
				classFact("student", 3, annAt(value.NilOID)),
				classFact("student", 5, annAt(value.NilOID)),
			}},
		{name: "hierarchy disjointness",
			want: "instance: oid &1 belongs to person and school, which share no common ancestor",
			facts: []engine.Fact{
				classFact("person", 1, tuple("name", str("x"), "address", str("y"))),
				classFact("school", 1, tuple("name", str("s"))),
			}},
		{name: "dangling association references",
			want: "instance: enrolled: dangling reference &99 to class student\n" +
				"instance: enrolled: dangling reference &98 to class school",
			facts: []engine.Fact{
				assocFact("enrolled", tuple("student", value.Ref(99), "school", value.Ref(98))),
			}},
		{name: "nil in association",
			want: "instance: tuple of enrolled: types: nil oid illegal in association component of class student at student",
			facts: []engine.Fact{
				classFact("school", 1, tuple("name", str("s"))),
				assocFact("enrolled", tuple("student", value.Ref(value.NilOID), "school", value.Ref(1))),
			}},
		{name: "nil class reference allowed", want: "<nil>", facts: []engine.Fact{
			classFact("person", 1, annAt(value.NilOID)),
			classFact("student", 1, annAt(value.NilOID)),
		}},
		{name: "ill-typed o-value",
			want: "instance: o-value of &1 in class person: types: expected string, got integer 3 at name",
			facts: []engine.Fact{
				classFact("person", 1, tuple("name", value.Int(3), "address", str("x"))),
			}},
		{name: "references inside collections",
			want: "instance: room: dangling reference &77 to class person\n" +
				"instance: room: dangling reference &77 to class student\n" +
				"instance: room: dangling reference &77 to class school",
			facts: []engine.Fact{
				classFact("room", 1, tuple("name", str("r"), "seats", value.NewSet(value.Ref(77)),
					"queue", value.NewSequence(value.Ref(77)), "bag", value.NewMultiset(value.Ref(77)))),
			}},
		// One oid in two classes of one hierarchy whose class facts
		// disagree: ν(&1) is person's fact ⊕ student's, so student's name
		// wins in both classes, and student's dangling school is checked
		// from the composed value. Composed the other way round, the name
		// would type.
		{name: "o-value composed across a hierarchy",
			want: "instance: o-value of &1 in class person: types: expected string, got integer 7 at name\n" +
				"instance: o-value of &2 in class person: types: expected string, got integer 8 at address\n" +
				"instance: o-value of &1 in class student: types: expected string, got integer 7 at name\n" +
				"instance: o-value of &2 in class student: types: expected string, got integer 8 at address",
			facts: []engine.Fact{
				classFact("person", 1, ann),
				classFact("student", 1, annAt(value.NilOID).With("name", value.Int(7))),
				classFact("person", 2, ann.With("address", value.Int(8))),
				classFact("student", 2, tuple("studschool", value.Ref(value.NilOID))),
			}},
		{name: "reference through a composed o-value",
			want: "instance: student: dangling reference &9 to class school",
			facts: []engine.Fact{
				classFact("person", 1, annAt(9)),
				classFact("student", 1, annAt(value.NilOID).With("studschool", value.Ref(9))),
			}},
		{name: "a second hierarchy meets the first",
			want: "instance: oid &1 belongs to person and school, which share no common ancestor\n" +
				"instance: oid &1 belongs to person and room, which share no common ancestor\n" +
				"instance: o-value of &1 in class room: types: expected set {person}, got null null at seats",
			facts: []engine.Fact{
				classFact("person", 1, ann),
				classFact("school", 1, tuple("name", str("s"))),
				classFact("room", 1, tuple("name", str("r"))),
			}},
	}
	for _, c := range cases {
		f := engine.NewFactSet()
		for _, fact := range c.facts {
			f.Add(fact)
		}
		if got := auditMatches(t, c.name, s, f); got != c.want {
			t.Errorf("%s: got\n%s\nwant\n%s", c.name, got, c.want)
		}
		f.Freeze() // the audit reads published, frozen sets too
		auditMatches(t, c.name+", frozen", s, f)
	}
}

// Random derived sets over the university schema, most of them illegal:
// oids shared within and across hierarchies, ill-typed and missing
// components, nil, dangling and misplaced references.
func TestFactSetAuditMatchesInstanceAuditRandom(t *testing.T) {
	s := universityTestSchema(t)
	r := rand.New(rand.NewSource(55))
	ref := func() value.Value {
		switch r.Intn(6) {
		case 0:
			return value.Ref(value.NilOID)
		case 1:
			return value.Null{}
		case 2:
			return str("x")
		}
		return value.Ref(value.OID(1 + r.Intn(8)))
	}
	name := func() value.Value {
		if r.Intn(8) == 0 {
			return value.Int(r.Intn(3))
		}
		return str([]string{"ann", "bob"}[r.Intn(2)])
	}
	component := func(v value.Tuple, label string, val value.Value) value.Tuple {
		if r.Intn(10) == 0 {
			return v // missing: projects to null
		}
		return v.With(label, val)
	}
	violations := 0
	for i := 0; i < 400; i++ {
		f := engine.NewFactSet()
		for n := r.Intn(10); n > 0; n-- {
			o := value.OID(1 + r.Intn(8))
			v := component(value.NewTuple(), "name", name())
			switch r.Intn(5) {
			case 0, 1:
				class := []string{"person", "student"}[r.Intn(2)]
				v = component(v, "address", name())
				if class == "student" {
					v = component(v, "studschool", ref())
				}
				f.Add(classFact(class, o, v))
			case 2:
				f.Add(classFact("school", o, v))
			case 3:
				v = component(v, "seats", value.NewSet(ref(), ref()))
				v = component(v, "queue", value.NewSequence(ref()))
				v = component(v, "bag", value.NewMultiset(ref(), ref()))
				f.Add(classFact("room", o, v))
			case 4:
				f.Add(assocFact("enrolled", tuple("student", ref(), "school", ref())))
			}
		}
		if auditMatches(t, fmt.Sprintf("set %d", i), s, f) != "<nil>" {
			violations++
		}
	}
	if violations < 200 {
		t.Fatalf("only %d of 400 random sets violate Definition 4", violations)
	}
}

// Every state the commits of TestIncrementalDeltaAuditMatchesFullAudit
// would install on the preloaded database, accepted or rejected.
func TestDeltaAuditCasesMatchInstanceAudit(t *testing.T) {
	db, err := Load(bytes.NewReader(auditPreloaded(t)))
	if err != nil {
		t.Fatal(err)
	}
	auditMatchesPublished(t, "preload", db)
	danglingEnrol, err := parser.ParseModule(`
rules
  enrolled(student: S, section: X) <- section(self: X).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	danglingEnrol.Rules[0].Head.Args[0].Term = ast.Const{Val: value.Ref(999)}
	mods := []*ast.Module{danglingEnrol}
	for _, src := range []string{
		`enrolled(student: S, section: X) <- student(self: S, name: "bob"), section(self: X, code: "lp201").`,
		`mark(student: S, code: "db101", grade: 20) <- student(self: S, name: "ann").`,
		`not enrolled(student: S, section: X) <- student(self: S, name: "ann"), enrolled(student: S, section: X).`,
		`offering(code: "cs300", capacity: 5).`,
		`offering(code: "void", capacity: 0).`,
		`member("bea", taught("db101")). not member("ann", taught(C)) <- offering(code: C), C = "db101".`,
		`member("zed", taught("db101")). not member("ann", taught(C)) <- offering(code: C), C = "db101".`,
		`intake(name: "cho"). student(self: S, name: N, year: 1) <- intake(name: N).`,
		`not section(code: C) <- offering(code: C), C = "db101".`,
	} {
		m, err := parser.ParseModule("rules\n  " + src + "\nend.\n")
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	inconsistent := 0
	for i, m := range mods {
		next := unauditedRIDV(t, db.snap.Load().st, m, db.opts)
		f, err := next.Derive(db.opts)
		if err != nil {
			t.Fatal(err)
		}
		if auditMatches(t, fmt.Sprintf("module %d", i), next.S, f) != "<nil>" {
			inconsistent++
		}
	}
	// The dangling oid constant and the class removal; the other
	// rejections are the denials'.
	if inconsistent != 2 {
		t.Fatalf("%d of the states violate Definition 4, want 2", inconsistent)
	}
}

// Every committed state of every vecMatrixCases case, under every engine
// leg, from scratch and incrementally.
func TestVecMatrixAuditMatchesInstanceAudit(t *testing.T) {
	for _, c := range vecMatrixCases() {
		for _, leg := range append(engineLegs(), engineLeg{name: "row oracle", opts: rowOracle()}) {
			for _, incremental := range []bool{false, true} {
				db, err := Open(c.schema, append(leg.opts, WithIncremental(incremental))...)
				if err != nil {
					t.Fatal(err)
				}
				for i, m := range c.modules {
					if _, err := db.Exec(m); err != nil {
						t.Fatal(err)
					}
					auditMatchesPublished(t, fmt.Sprintf("%s, %s, incremental=%v, commit %d", c.name, leg.name, incremental, i), db)
				}
			}
		}
	}
}
