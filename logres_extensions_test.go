package logres

import (
	"bytes"
	"strings"
	"testing"
)

// Tests of the §1/§5 features: parametric rule semantics, the module
// library ("methods"), and the explain facility.

func TestNonInflationaryModule(t *testing.T) {
	db, err := Open(`
associations
  SEED = (k: integer);
  ONCE = (k: integer);
  BLOCKER = (k: integer);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  seed(k: 1).
end.
`); err != nil {
		t.Fatal(err)
	}
	// Under the non-inflationary semantics, `once` does not survive the
	// appearance of its blocker.
	if _, err := db.Exec(`
mode ridv.
semantics noninflationary.
rules
  once(k: X) <- seed(k: X), not blocker(k: X).
  blocker(k: X) <- seed(k: X).
end.
`); err != nil {
		t.Fatal(err)
	}
	if n := db.EDBCount("once"); n != 0 {
		t.Fatalf("once = %d, want 0 under non-inflationary semantics", n)
	}
	if n := db.EDBCount("blocker"); n != 1 {
		t.Fatalf("blocker = %d", n)
	}
}

func TestWithNonInflationaryOption(t *testing.T) {
	db, err := Open(`
associations
  SEED = (k: integer);
  FLIP = (k: integer);
`, WithNonInflationary(true), WithBudget(Budget{MaxRounds: 50}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  seed(k: 1).
end.
`); err != nil {
		t.Fatal(err)
	}
	// The oscillating program has no fixpoint: undefined.
	_, err = db.Exec(`
mode ridv.
rules
  flip(k: X) <- seed(k: X), not flip(k: X).
end.
`)
	if err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("oscillation not reported: %v", err)
	}
}

func TestModuleLibraryThroughAPI(t *testing.T) {
	db, err := Open(`
domains NAME = string;
associations
  ROMAN = (name: NAME);
  ITALIAN = (name: NAME);
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(`
module promote.
mode ridv.
rules
  italian(name: X) <- roman(name: X).
end.
`); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(`
module census.
rules
goal
  ?- italian(name: X).
end.
`); err != nil {
		t.Fatal(err)
	}
	if got := db.Modules(); len(got) != 2 || got[0] != "promote" {
		t.Fatalf("modules = %v", got)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  roman(name: "ugo").
end.
`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Call("promote"); err != nil {
		t.Fatal(err)
	}
	if db.EDBCount("italian") != 1 {
		t.Fatal("promote did not run")
	}
	res, err := db.Call("census")
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer == nil || len(res.Answer.Rows) != 1 {
		t.Fatalf("census answer = %+v", res.Answer)
	}
	if _, err := db.Call("nosuch"); err == nil {
		t.Fatal("unknown module accepted")
	}
}

func TestLibrarySurvivesSnapshot(t *testing.T) {
	db, err := Open(`associations R = (k: integer);`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Register(`
module fill.
mode ridv.
rules
  r(k: 7).
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
	if got := db2.Modules(); len(got) != 1 || got[0] != "fill" {
		t.Fatalf("library lost: %v", got)
	}
	if _, err := db2.Call("fill"); err != nil {
		t.Fatal(err)
	}
	if db2.EDBCount("r") != 1 {
		t.Fatal("restored module does not run")
	}
}

func TestExplain(t *testing.T) {
	db, err := Open(`
classes
  PERSON = (name: string);
  STUDENT = (PERSON, school: string);
  STUDENT isa PERSON;
associations
  INTAKE = (name: NAME);
domains NAME = string;
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode ridv.
rules
  intake(name: "ann").
end.
`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
mode radi.
rules
  student(self: S, name: N, school: "polimi") <- intake(name: N).
end.
`); err != nil {
		t.Fatal(err)
	}
	out, err := db.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stratified", "[generated]", "[invents oids]", "fired", "oids invented"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, err := Open(`associations R = (k: integer);`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 10; i++ {
				_, err := db.Exec(`
mode ridv.
rules
  r(k: ` + string(rune('0'+g)) + `).
end.
`)
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		go func() {
			for i := 0; i < 10; i++ {
				if _, err := db.Query(`?- r(k: X).`); err != nil {
					done <- err
					return
				}
				_ = db.EDBCount("r")
				_ = db.RuleCount()
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n := db.EDBCount("r"); n != 4 {
		t.Fatalf("r = %d, want 4", n)
	}
}
