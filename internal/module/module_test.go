package module

import (
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

func opts() engine.Options { return engine.DefaultOptions() }

func parseModule(t *testing.T, src string) *ast.Module {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newState builds a state with the given schema module source.
func newState(t *testing.T, schemaSrc string) *State {
	t.Helper()
	m := parseModule(t, schemaSrc)
	if err := m.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewState(m.Schema)
}

// seed applies a RIDV module of facts.
func seed(t *testing.T, st *State, factsSrc string) *State {
	t.Helper()
	rules, err := parser.ParseProgram(factsSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apply(st, &ast.Module{Schema: types.NewSchema(), Rules: rules}, ast.RIDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	return res.State
}

const italianSchema = `
domains NAME = string;
associations
  ITALIAN = (name: NAME);
  ROMAN = (name: NAME);
`

// Example 4.1 of the paper: E0 = {italian(sara)}, R0 = ∅; applying a RIDV
// module with facts and a rule yields exactly the paper's E1.
func TestExample41RIDV(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `italian(name: "sara").`)

	mod := parseModule(t, `
mode ridv.
rules
  italian(name: "luca").
  roman(name: "ugo").
  italian(name: X) <- roman(name: X).
end.
`)
	res, err := Apply(st, mod, mod.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	e1 := res.State.E
	if e1.Size("italian") != 3 || e1.Size("roman") != 1 {
		t.Fatalf("italian=%d roman=%d", e1.Size("italian"), e1.Size("roman"))
	}
	for _, name := range []string{"sara", "luca", "ugo"} {
		f := engine.Fact{Pred: "italian", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str(name)})}
		if !e1.Has(f) {
			t.Fatalf("italian(%s) missing", name)
		}
	}
	// RM is not added to the persistent rules under RIDV.
	if len(res.State.R) != 0 {
		t.Fatalf("RIDV must leave R unchanged, got %d rules", len(res.State.R))
	}
}

func TestRIDIQueryLeavesStateUnchanged(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `italian(name: "sara"). roman(name: "ugo").`)
	before := st.E.TotalSize()

	mod := parseModule(t, `
rules
  italian(name: X) <- roman(name: X).
goal
  ?- italian(name: X).
end.
`)
	res, err := Apply(st, mod, ast.RIDI, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == nil || len(res.Answer.Rows) != 2 {
		t.Fatalf("answer = %+v", res.Answer)
	}
	if st.E.TotalSize() != before {
		t.Fatal("RIDI changed the EDB")
	}
	if res.State != st {
		t.Fatal("RIDI must return the original state")
	}
}

func TestRADIAddsPersistentRules(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)
	mod := parseModule(t, `
rules
  italian(name: X) <- roman(name: X).
end.
`)
	res, err := Apply(st, mod, ast.RADI, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.State.R) != 1 {
		t.Fatalf("R = %d rules", len(res.State.R))
	}
	// EDB untouched; the instance includes the derived fact.
	if res.State.E.Size("italian") != 0 {
		t.Fatal("RADI changed the EDB")
	}
	f, _, err := res.State.Instance(opts())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("italian") != 1 {
		t.Fatalf("instance italian = %d", f.Size("italian"))
	}
}

func TestRDDIDeletesPersistentRules(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)
	ruleSrc := `
rules
  italian(name: X) <- roman(name: X).
end.
`
	mod := parseModule(t, ruleSrc)
	res, err := Apply(st, mod, ast.RADI, opts())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Apply(res.State, parseModule(t, ruleSrc), ast.RDDI, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.State.R) != 0 {
		t.Fatalf("R = %d rules after RDDI", len(res2.State.R))
	}
	f, _, err := res2.State.Instance(opts())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("italian") != 0 {
		t.Fatal("derived facts survive rule deletion")
	}
}

func TestRADVAddsRulesAndUpdatesData(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)
	mod := parseModule(t, `
rules
  italian(name: X) <- roman(name: X).
end.
`)
	res, err := Apply(st, mod, ast.RADV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.State.R) != 1 {
		t.Fatalf("R = %d", len(res.State.R))
	}
	if res.State.E.Size("italian") != 1 {
		t.Fatal("RADV did not update the EDB")
	}
}

func TestRDDVDeletesRulesAndFacts(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo"). italian(name: "luca").`)
	// The module's rules derive EM = {italian(luca)} from the empty set.
	mod := parseModule(t, `
rules
  italian(name: "luca").
end.
`)
	res, err := Apply(st, mod, ast.RDDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.State.E.Size("italian") != 0 {
		t.Fatalf("italian = %d after RDDV", res.State.E.Size("italian"))
	}
	if res.State.E.Size("roman") != 1 {
		t.Fatal("RDDV deleted too much")
	}
}

func TestGoalForbiddenInDataVariantModes(t *testing.T) {
	st := newState(t, italianSchema)
	mod := parseModule(t, `
rules
  italian(name: "x").
goal
  ?- italian(name: X).
end.
`)
	for _, mode := range []ast.Mode{ast.RIDV, ast.RADV, ast.RDDV} {
		if _, err := Apply(st, mod, mode, opts()); err == nil {
			t.Errorf("mode %s accepted a goal", mode)
		}
	}
}

func TestModuleAddsSchema(t *testing.T) {
	st := newState(t, italianSchema)
	mod := parseModule(t, `
mode radv.
associations
  TUSCAN = (name: NAME);
rules
  tuscan(name: "dante").
end.
`)
	res, err := Apply(st, mod, mod.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.S.IsAssociation("tuscan") {
		t.Fatal("module schema not merged")
	}
	if res.State.E.Size("tuscan") != 1 {
		t.Fatal("facts for new association missing")
	}
}

func TestRejectionOnViolatedDenial(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `italian(name: "sara"). roman(name: "sara").`)
	// Add a denial that the current data violates: RADI must reject and
	// leave the original state untouched.
	mod := parseModule(t, `
rules
  <- italian(name: X), roman(name: X).
end.
`)
	_, err := Apply(st, mod, ast.RADI, opts())
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("inconsistent module application accepted: %v", err)
	}
	// Original state still works.
	if _, _, err := st.Instance(opts()); err != nil {
		t.Fatal(err)
	}
}

func TestRejectionOnReferentialViolation(t *testing.T) {
	src := `
domains NAME = string;
classes
  SCHOOL = (sname: NAME);
associations
  ENROLL = (school: SCHOOL, who: NAME);
`
	st := newState(t, src)
	// Insert an association tuple referencing a non-existent school oid.
	st2 := st.Clone()
	st2.E.Add(engine.Fact{Pred: "enroll", Tuple: value.NewTuple(
		value.Field{Label: "school", Value: value.Ref(99)},
		value.Field{Label: "who", Value: value.Str("x")},
	)})
	if _, _, err := st2.Instance(opts()); err == nil || !strings.Contains(err.Error(), "dangling") {
		t.Fatalf("dangling reference accepted: %v", err)
	}
}

// A state is audited once, when it enters the database, so a goal-only
// RIDI application trusts it and answers without re-auditing. A RIDI
// module that brings rules and a RIDV trust their input state too and
// audit only what they add: a rule or update of a predicate the violation
// does not involve is accepted, while one that writes what the violated
// denial reads, or the tuple holding the dangling reference, or a class
// fact (which takes the full audit), is rejected. The states here are
// built by hand past every audit, one violating a persistent denial, one
// holding a dangling reference.
func TestGoalOnlyRIDITrustsTheStateAndRuleRIDIAudits(t *testing.T) {
	denial := newState(t, italianSchema+"  TUSCAN = (name: NAME);\n")
	denial = seed(t, denial, `italian(name: "sara"). roman(name: "sara").`)
	rules, err := parser.ParseProgram(`<- italian(name: X), roman(name: X).`)
	if err != nil {
		t.Fatal(err)
	}
	denial.R = rules

	dangling := newState(t, `
domains NAME = string;
classes
  SCHOOL = (sname: NAME);
associations
  ENROLL = (school: SCHOOL, who: NAME);
  ITALIAN = (name: NAME);
`)
	dangling.E.Add(engine.Fact{Pred: "enroll", Tuple: value.NewTuple(
		value.Field{Label: "school", Value: value.Ref(99)},
		value.Field{Label: "who", Value: value.Str("sara")},
	)})

	for _, c := range []struct {
		name      string
		st        *State
		goal      string
		violation string
		// unrelated and related are the rules of a RIDI module and of a
		// RIDV update: unrelated writes a predicate the violation does not
		// involve, each of related one it does.
		unrelated string
		related   []string
	}{
		{"denial", denial, "?- roman(name: X).", "integrity violation",
			`tuscan(name: "dante").`, []string{`roman(name: "ugo").`}},
		{"dangling", dangling, "?- enroll(who: X).", "dangling",
			`italian(name: "sara").`, []string{
				`enroll(school: S, who: "ugo") <- enroll(school: S).`,
				`italian(name: "sara"). school(self: S, sname: N) <- italian(name: N).`,
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := c.st.Instance(opts()); err == nil || !strings.Contains(err.Error(), c.violation) {
				t.Fatalf("the hand-built state passes the audit: %v", err)
			}
			res, err := Apply(c.st, parseModule(t, "goal\n  "+c.goal+"\nend.\n"), ast.RIDI, opts())
			if err != nil {
				t.Fatalf("goal-only RIDI re-audited the state: %v", err)
			}
			if res.Answer == nil || len(res.Answer.Rows) != 1 {
				t.Fatalf("answer = %+v", res.Answer)
			}
			for _, mode := range []ast.Mode{ast.RIDI, ast.RIDV} {
				apply := func(src string) (*Result, error) {
					return Apply(c.st, parseModule(t, "rules\n  "+src+"\nend.\n"), mode, opts())
				}
				res, err = apply(c.unrelated)
				if err != nil {
					t.Fatalf("%s of an unrelated predicate re-audited the state: %v", mode, err)
				}
				if res.Audit != AuditDelta {
					t.Fatalf("%s of an unrelated predicate ran audit %q", mode, res.Audit)
				}
				for _, src := range c.related {
					if _, err := apply(src); err == nil || !strings.Contains(err.Error(), c.violation) {
						t.Fatalf("%s of %s: %v, want %q", mode, src, err, c.violation)
					}
				}
			}
		})
	}
}

func TestMaterialize(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)
	mod := parseModule(t, `
rules
  italian(name: X) <- roman(name: X).
end.
`)
	res, err := Apply(st, mod, ast.RADI, opts())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Materialize(res.State, nil, opts())
	if err != nil {
		t.Fatal(err)
	}
	mat := sr.Res.State
	if len(mat.R) != 0 {
		t.Fatal("Materialize kept rules")
	}
	if mat.E.Size("italian") != 1 {
		t.Fatal("Materialize lost derived facts (E must coincide with I)")
	}
}

func TestPartlyExtensionalPartlyIntensional(t *testing.T) {
	// A predicate defined partly in E and partly by rules in R (§4.2).
	st := newState(t, italianSchema)
	st = seed(t, st, `italian(name: "sara"). roman(name: "ugo").`)
	mod := parseModule(t, `
rules
  italian(name: X) <- roman(name: X).
end.
`)
	res, err := Apply(st, mod, ast.RADI, opts())
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := res.State.Instance(opts())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("italian") != 2 {
		t.Fatalf("italian instance = %d, want extensional+derived", f.Size("italian"))
	}
}

func TestObjectCreationThroughModules(t *testing.T) {
	src := `
domains NAME = string;
classes PERSON = (name: NAME);
associations ARRIVAL = (name: NAME);
`
	st := newState(t, src)
	st = seed(t, st, `arrival(name: "ann").`)
	mod := parseModule(t, `
mode ridv.
rules
  person(self: X, name: N) <- arrival(name: N).
end.
`)
	res, err := Apply(st, mod, mod.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.State.E.Size("person") != 1 {
		t.Fatalf("person = %d", res.State.E.Size("person"))
	}
	if res.State.Counter == 0 {
		t.Fatal("oid counter not advanced")
	}
	// Re-applying the same module must not create a second object (VD
	// dedup against the new E).
	res2, err := Apply(res.State, mod, mod.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res2.State.E.Size("person") != 1 {
		t.Fatalf("re-application duplicated objects: %d", res2.State.E.Size("person"))
	}
}

func TestUpdateDerivedRelationIdiom(t *testing.T) {
	// §4.2 "updating derived relations", third strategy: materialize the
	// derived relation (RIDV), delete the old rule (RDDV has rule effect;
	// here RDDI suffices as data was materialized), then add new rules.
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)
	oldRule := `
rules
  italian(name: X) <- roman(name: X).
end.
`
	res, err := Apply(st, parseModule(t, oldRule), ast.RADI, opts())
	if err != nil {
		t.Fatal(err)
	}
	// Materialize italian into E.
	sr, err := Materialize(res.State, nil, opts())
	if err != nil {
		t.Fatal(err)
	}
	mat := sr.Res.State
	// New definition overrides: delete the materialized tuple, add another.
	upd := parseModule(t, `
mode ridv.
rules
  not italian(name: "ugo") <- roman(name: "ugo").
  italian(name: "ugo2") <- roman(name: "ugo").
end.
`)
	res2, err := Apply(mat, upd, upd.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	got := res2.State.E
	hasOld := got.Has(engine.Fact{Pred: "italian", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("ugo")})})
	hasNew := got.Has(engine.Fact{Pred: "italian", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("ugo2")})})
	if hasOld || !hasNew {
		t.Fatalf("update idiom failed: old=%v new=%v", hasOld, hasNew)
	}
}

func TestStateCloneIndependence(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `italian(name: "sara").`)
	cp := st.Clone()
	cp.E.Add(engine.Fact{Pred: "roman", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("x")})})
	if st.E.Size("roman") != 0 {
		t.Fatal("clone shares the EDB")
	}
}

func TestSuperclassDeletionRejected(t *testing.T) {
	// Deleting an object's membership from the superclass while a
	// subclass still holds it can never produce a legal state: the
	// generated isa-propagation constraint re-derives the membership the
	// deletion removes, so the one-step operator oscillates and no
	// fixpoint exists — the application fails (with a bounded-steps
	// error) and the original state survives.
	src := `
classes
  PERSON = (name: string);
  STUDENT = (PERSON, school: string);
  STUDENT isa PERSON;
associations
  INTAKE = (name: string);
  PURGE = (name: string);
`
	st := newState(t, src)
	st = seed(t, st, `
intake(name: "ann").
student(self: S, name: N, school: "polimi") <- intake(name: N).
`)
	if st.E.Size("student") != 1 || st.E.Size("person") != 1 {
		t.Fatalf("setup: student=%d person=%d", st.E.Size("student"), st.E.Size("person"))
	}
	mod := parseModule(t, `
mode ridv.
rules
  purge(name: "ann").
  not person(name: N) <- purge(name: N).
end.
`)
	boundedOpts := opts()
	boundedOpts.Budget.MaxRounds = 200
	_, err := Apply(st, mod, ast.RIDV, boundedOpts)
	if err == nil || !strings.Contains(err.Error(), "fixpoint") {
		t.Fatalf("superclass-only deletion accepted: %v", err)
	}
	// The original state is untouched and still consistent.
	if _, _, err := st.Instance(opts()); err != nil {
		t.Fatal(err)
	}
	// Deleting from BOTH classes is consistent.
	mod2 := parseModule(t, `
mode ridv.
rules
  purge(name: "ann").
  not person(name: N) <- purge(name: N).
  not student(name: N) <- purge(name: N).
end.
`)
	res, err := Apply(st, mod2, ast.RIDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.State.E.Size("person") != 0 || res.State.E.Size("student") != 0 {
		t.Fatalf("deletion incomplete: person=%d student=%d",
			res.State.E.Size("person"), res.State.E.Size("student"))
	}
}

func TestDanglingReferenceAfterDeletionRejected(t *testing.T) {
	// Deleting an object still referenced by an association violates the
	// generated referential constraint; the application is rejected.
	src := `
classes SCHOOL = (sname: string);
associations
  ATTEND = (school: SCHOOL, who: string);
  SEEDS = (sname: string);
  KILL = (sname: string);
`
	st := newState(t, src)
	st = seed(t, st, `
seeds(sname: "polimi").
school(self: S, sname: N) <- seeds(sname: N).
attend(school: S, who: "ann") <- school(self: S).
`)
	mod := parseModule(t, `
mode ridv.
rules
  kill(sname: "polimi").
  not school(sname: N) <- kill(sname: N).
end.
`)
	if _, err := Apply(st, mod, ast.RIDV, opts()); err == nil ||
		!strings.Contains(err.Error(), "rejected") {
		t.Fatalf("dangling-reference deletion accepted: %v", err)
	}
	// Cascading the deletion makes it legal. Note the attend deletion must
	// not re-read the school class: stratification orders deletions by
	// their dependencies, so a rule whose body joins through the deleted
	// class would run in a later stratum and find it already gone — the
	// cascade below binds the doomed tuples through attend itself.
	mod2 := parseModule(t, `
mode ridv.
rules
  kill(sname: "polimi").
  not attend(T) <- kill(sname: N), attend(T).
  not school(sname: N) <- kill(sname: N).
end.
`)
	res, err := Apply(st, mod2, ast.RIDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.State.E.Size("school") != 0 || res.State.E.Size("attend") != 0 {
		t.Fatal("cascaded deletion incomplete")
	}
}

// An application whose module declares nothing, or only what S already
// holds, or, deleting, only what S lacks, runs under the state's schema
// itself, so the update program, the persistent one and the next read
// share the schema E is marked closed under; one that declares a new
// type equation runs under a new schema.
func TestDataVariantKeepsUndeclaredSchema(t *testing.T) {
	st := newState(t, footprintSchema)
	for _, c := range []struct {
		src  string
		mode ast.Mode
		same bool
	}{
		{"rules\n  person(name: \"a\").\nend.\n", ast.RIDV, true},
		{"rules\n  orders(id: 1).\nend.\n", ast.RDDV, true},
		{"rules\n  audit(id: X) <- orders(id: X).\nend.\n", ast.RADV, true},
		{"associations\n  extra = (id: integer);\nrules\n  extra(id: 1).\nend.\n", ast.RADV, false},
		{"associations\n  extra = (id: integer);\nrules\n  extra(id: 2).\nend.\n", ast.RIDV, true},
		{"rules\n  <- orders(id: 99).\nend.\n", ast.RADI, true},
		{"associations\n  absent = (id: integer);\nend.\n", ast.RDDI, true},
	} {
		m := parseModule(t, c.src)
		res, err := Apply(st, m, c.mode, opts())
		if err != nil {
			t.Fatal(err)
		}
		if (res.State.S == st.S) != c.same {
			t.Fatalf("%s %q: kept the schema = %v, want %v", c.mode, c.src, res.State.S == st.S, c.same)
		}
		st = res.State
	}
}
