package logres

import (
	"fmt"
	"testing"

	"logres/internal/hooks"
	"logres/internal/obs"
)

// withIsaFullPass runs fn with every isa pass walking its whole sub
// class: the reference the Δ-local isa pass is held to.
func withIsaFullPass(fn func()) {
	hooks.IsaFullPass = true
	defer func() { hooks.IsaFullPass = false }()
	fn()
}

// withPlanReference runs fn with every program it compiles planned as a
// plain stratification: each level one stratum, each one-step stratum
// confirming its fixpoint.
func withPlanReference(fn func()) {
	hooks.PlanReference = true
	defer func() { hooks.PlanReference = false }()
	fn()
}

// A registrar enrol or drop commit writes one association fact, so no
// student or instructor object differs from the state it starts from:
// neither the update program's run nor the persistent program's visits an
// object in an isa step. Both programs hold one rule of their own, rule
// 0 (the update rule; the denial), and the generated isa steps after it.
// Each commit's E is closed under the schema the next one runs under, at
// the gated size and at 16 times its sections.
func TestRegistrarCommitVisitsNoIsaObject(t *testing.T) {
	for _, scale := range []int{1, 16} {
		t.Run(fmt.Sprintf("enrolled=x%d", scale), func(t *testing.T) {
			db := registrarPreload(t, registrarSchema, scale)
			registrarEnrolDrop(t, db, 0)
			for i := 1; i <= 4; i++ {
				rt := &recordingTracer{}
				db.SetTracer(rt)
				registrarEnrolDrop(t, db, i)
				db.SetTracer(nil)
				update, isa := 0, 0
				for _, ev := range rt.events {
					switch {
					case ev.Kind != obs.KindRuleFire:
					case ev.Rule == 0:
						update += ev.Count
					default:
						isa += ev.Count
					}
				}
				if update == 0 || isa != 0 {
					t.Fatalf("commit %d: the update rule fired %d times and the isa steps %d, want some and 0", i, update, isa)
				}
			}
		})
	}
}

// isaVisits runs fn traced and returns how many times the rules with an
// id of at least first fired: the generated isa steps of a program whose
// own rules are numbered below first.
func isaVisits(db *Database, first int, fn func()) int {
	rt := &recordingTracer{}
	db.SetTracer(rt)
	defer db.SetTracer(nil)
	fn()
	visits := 0
	for _, ev := range rt.events {
		if ev.Kind == obs.KindRuleFire && ev.Rule >= first {
			visits += ev.Count
		}
	}
	return visits
}

// A RADI that declares nothing keeps S, so E stays closed under the
// schema the persistent program runs under: the next goal's isa steps
// visit no object, where the full pass visits every student and
// instructor.
func TestRuleChangeKeepsSchema(t *testing.T) {
	db := registrarPreload(t, registrarSchema, 1)
	s0 := db.snap.Load().st.S
	if _, err := db.Exec("mode radi.\nrules\n  mark(student: S, code: \"c999\", grade: 30) <- student(self: S, name: \"nobody\").\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if db.snap.Load().st.S != s0 {
		t.Fatal("a RADI that declares nothing replaced S")
	}
	goal := func() {
		if _, err := db.Query(`?- student(self: S, name: "s0001").`); err != nil {
			t.Fatal(err)
		}
	}
	n := db.RuleCount()
	if v := isaVisits(db, n, goal); v != 0 {
		t.Fatalf("the goal after the RADI visited %d objects in isa steps, want 0", v)
	}
	withIsaFullPass(func() {
		if v := isaVisits(db, n, goal); v != 305 {
			t.Fatalf("the goal's full isa pass visited %d objects, want the 300 students and 5 instructors", v)
		}
	})
}
