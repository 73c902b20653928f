package logres

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"logres/internal/engine"
	"logres/internal/parser"
)

const footballSchema = `
domains
  NAME = string;
  ROLE = integer;
  DATE = string;
  SCORE = (home: integer, guest: integer);
classes
  PLAYER = (NAME, roles: {ROLE});
  TEAM = (team_name: NAME, base_players: <PLAYER>, substitutes: {PLAYER});
associations
  GAME = (h_team: TEAM, g_team: TEAM, DATE, SCORE);
  SIGNING = (team: NAME, player: NAME, role: ROLE);
`

func openFootball(t *testing.T) *Database {
	t.Helper()
	db, err := Open(footballSchema)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenRejectsRules(t *testing.T) {
	if _, err := Open(`rules p(x: 1).`); err == nil {
		t.Fatal("Open accepted rules")
	}
}

func TestOpenRejectsInvalidSchema(t *testing.T) {
	if _, err := Open(`classes C = (x: NOPE);`); err == nil {
		t.Fatal("Open accepted invalid schema")
	}
}

func TestFootballEndToEnd(t *testing.T) {
	db := openFootball(t)
	// Load signings, create player objects, then teams with sequences.
	_, err := db.Exec(`
mode ridv.
rules
  signing(team: "milan", player: "rossi", role: 9).
  signing(team: "milan", player: "verdi", role: 7).
  player(self: P, name: N, roles: {R}) <- signing(player: N, role: R).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.Count("player")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("players = %d", n)
	}
	ans, err := db.Query(`?- player(name: X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows = %v", ans.Rows)
	}
}

func TestModeSemantics(t *testing.T) {
	db, err := Open(`
domains NAME = string;
associations
  ITALIAN = (name: NAME);
  ROMAN = (name: NAME);
`)
	if err != nil {
		t.Fatal(err)
	}
	// RIDV: facts land in E.
	if _, err := db.Exec(`
mode ridv.
rules
  italian(name: "sara").
  roman(name: "ugo").
end.
`); err != nil {
		t.Fatal(err)
	}
	if db.EDBCount("italian") != 1 {
		t.Fatalf("EDB italian = %d", db.EDBCount("italian"))
	}
	// RADI: rule persists, E unchanged, instance derives.
	if _, err := db.Exec(`
mode radi.
rules
  italian(name: X) <- roman(name: X).
end.
`); err != nil {
		t.Fatal(err)
	}
	if db.RuleCount() != 1 {
		t.Fatalf("rules = %d", db.RuleCount())
	}
	if db.EDBCount("italian") != 1 {
		t.Fatal("RADI touched the EDB")
	}
	n, err := db.Count("italian")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("instance italian = %d", n)
	}
	// Materialize: E = I, rules cleared.
	if err := db.Materialize(); err != nil {
		t.Fatal(err)
	}
	if db.RuleCount() != 0 || db.EDBCount("italian") != 2 {
		t.Fatalf("materialize: rules=%d italian=%d", db.RuleCount(), db.EDBCount("italian"))
	}
}

func TestRejectionKeepsState(t *testing.T) {
	db, err := Open(`
domains NAME = string;
associations
  MARRIED = (name: NAME);
  DIVORCED = (name: NAME);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  married(name: "x").
  divorced(name: "x").
end.
`); err != nil {
		t.Fatal(err)
	}
	// Adding the denial must be rejected and leave the state usable.
	if _, err := db.Exec(`
mode radi.
rules
  <- married(name: X), divorced(name: X).
end.
`); err == nil {
		t.Fatal("violated denial accepted")
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if db.RuleCount() != 0 {
		t.Fatal("rejected module leaked rules")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := openFootball(t)
	if _, err := db.Exec(`
mode ridv.
rules
  signing(team: "milan", player: "rossi", role: 9).
  player(self: P, name: N, roles: {R}) <- signing(player: N, role: R).
end.
`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.Count("player")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("players after load = %d", n)
	}
	s1, err := db.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db2.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("instances differ:\n%s\nvs\n%s", s1, s2)
	}
}

func TestGoalOnlyModuleViaExec(t *testing.T) {
	db := openFootball(t)
	if _, err := db.Exec(`
mode ridv.
rules
  signing(team: "milan", player: "rossi", role: 9).
end.
`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`
goal
  ?- signing(player: X).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == nil || len(res.Answer.Rows) != 1 {
		t.Fatalf("answer = %+v", res.Answer)
	}
}

func TestSchemaRendering(t *testing.T) {
	db := openFootball(t)
	s := db.Schema()
	for _, want := range []string{"classes", "player", "associations", "game"} {
		if !strings.Contains(s, want) {
			t.Errorf("schema missing %q", want)
		}
	}
}

func TestInstanceAccessors(t *testing.T) {
	db := openFootball(t)
	if _, err := db.Exec(`
mode ridv.
rules
  signing(team: "milan", player: "rossi", role: 9).
end.
`); err != nil {
		t.Fatal(err)
	}
	facts, err := db.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 1 || facts[0].Pred != "signing" {
		t.Fatalf("facts = %v", facts)
	}
	out, err := db.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "signing") {
		t.Fatalf("InstanceString = %q", out)
	}
}

func TestOptions(t *testing.T) {
	db, err := Open(`associations N = (v: integer);`,
		WithBudget(Budget{MaxRounds: 5}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`
mode ridv.
rules
  n(v: 0).
  n(v: Y) <- n(v: X), Y = X + 1.
end.
`)
	if err == nil || !strings.Contains(err.Error(), "no fixpoint within 5 rounds") {
		t.Fatalf("rounds budget ignored: %v", err)
	}
	// Round-bound exhaustion is a budget abort like any other: the typed
	// error carries the axis and the round it tripped at.
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("round-bound overflow is not a *BudgetError: %v", err)
	}
	if be.Axis != AxisRounds || be.Limit != 5 {
		t.Fatalf("BudgetError = %+v, want rounds axis with limit 5", be)
	}
}

// The paper's running university example end to end through the public
// API: hierarchy, invention, association join, goal.
func TestUniversityEndToEnd(t *testing.T) {
	db, err := Open(`
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
  PAIR = (p_name: NAME, s_name: NAME);
  INTAKE = (name: NAME, kind: string);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  intake(name: "smith", kind: "student").
  intake(name: "smith", kind: "professor").
  intake(name: "jones", kind: "student").
  student(self: S, name: N, school: "polimi") <- intake(name: N, kind: "student").
  professor(self: P, name: N, course: "db") <- intake(name: N, kind: "professor").
end.
`); err != nil {
		t.Fatal(err)
	}
	// Persons: 2 students + 1 professor = 3 objects (smith has two roles,
	// hence two distinct objects in this modelling — the classes are
	// populated by independent inventions).
	persons, err := db.Count("person")
	if err != nil {
		t.Fatal(err)
	}
	if persons != 3 {
		t.Fatalf("persons = %d", persons)
	}
	// The paper's pair rule through tuple variables.
	if _, err := db.Exec(`
mode radi.
rules
  advises(X1, Y1) <- professor(X1, name: X), student(Y1, name: X).
  pair(p_name: X, s_name: X) <- professor(X1, name: X), student(Y1, name: X), advises(X1, Y1).
end.
`); err != nil {
		t.Fatal(err)
	}
	ans, err := db.Query(`?- pair(p_name: X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("pair rows = %v", ans.Rows)
	}
	if ans.Rows[0][0].String() != `"smith"` {
		t.Fatalf("pair = %v", ans.Rows[0])
	}
}

// The parallel row engine is gone: WithWorkers and WithShards accept only
// 1, and any other value fails Open, Load, OpenDurable (fresh and
// recovering) and engine.Compile with an error naming the option, rather
// than being accepted and ignored.
func TestRemovedEngineOptionsRejected(t *testing.T) {
	const schema = `associations P = (x: integer);`
	db, err := Open(schema, WithWorkers(1), WithShards(1))
	if err != nil {
		t.Fatalf("WithWorkers(1), WithShards(1): %v", err)
	}
	var snap bytes.Buffer
	if err := db.Save(&snap); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ddb, _, err := OpenDurable(schema, Durability{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ddb.Close()

	for _, c := range []struct {
		opt  Option
		name string
	}{{WithWorkers(4), "WithWorkers(4)"}, {WithShards(2), "WithShards(2)"}} {
		check := func(how string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), c.name) {
				t.Fatalf("%s with %s: err = %v, want an error naming the option", how, c.name, err)
			}
		}
		_, err := Open(schema, c.opt)
		check("Open", err)
		_, err = Load(bytes.NewReader(snap.Bytes()), c.opt)
		check("Load", err)
		_, _, err = OpenDurable(schema, Durability{Dir: t.TempDir()}, c.opt)
		check("OpenDurable (fresh)", err)
		_, _, err = OpenDurable(schema, Durability{Dir: dir}, c.opt)
		check("OpenDurable (recovering)", err)
	}
	// The refused recovery left the directory usable.
	if ddb, _, err = OpenDurable(schema, Durability{Dir: dir}); err != nil {
		t.Fatalf("reopen after a refused open: %v", err)
	}
	ddb.Close()

	m, err := parser.ParseModule(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		opts engine.Options
		name string
	}{{engine.Options{Workers: 2}, "Options.Workers"}, {engine.Options{Shards: 2}, "Options.Shards"}} {
		if _, err := engine.Compile(m.Schema, nil, c.opts); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Fatalf("engine.Compile with %s = 2: err = %v, want an error naming it", c.name, err)
		}
	}
	if _, err := engine.Compile(m.Schema, nil, engine.Options{Workers: 1, Shards: 1}); err != nil {
		t.Fatalf("engine.Compile with Workers = Shards = 1: %v", err)
	}
}
