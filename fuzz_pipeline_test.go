package logres

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"logres/internal/parser"
)

// End-to-end robustness: random mutations of valid schema+module sources
// driven through the full pipeline (parse → validate → compile → evaluate
// with a small step bound) must never panic; errors of any kind are fine.

var fuzzSchemas = []string{
	`
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, school: NAME);
  STUDENT isa PERSON;
associations
  PARENT = (par: NAME, chil: NAME);
functions
  DESC: NAME -> {NAME};
`,
	`
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`,
}

var fuzzModules = []string{
	`
mode ridv.
rules
  parent(par: "a", chil: "b").
  person(self: P, name: N) <- parent(par: N).
  member(X, desc(Y)) <- parent(par: Y, chil: X).
end.
`,
	`
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  not edge(src: X, dst: X) <- edge(src: X, dst: X).
  <- tc(src: 0, dst: 0).
goal
  ?- tc(src: X), X > 1.
end.
`,
	`
mode radv.
semantics noninflationary.
rules
  edge(src: 1, dst: 2).
  tc(T) <- tc(T).
end.
`,
}

func mutate(r *rand.Rand, src string) string {
	alphabet := []byte(`abcXYZ0159 .,;:(){}[]<>"=+-*/_%?-<-` + "\n")
	b := []byte(src)
	for i := 0; i < 1+r.Intn(8); i++ {
		if len(b) == 0 {
			break
		}
		pos := r.Intn(len(b))
		switch r.Intn(4) {
		case 0:
			b[pos] = alphabet[r.Intn(len(alphabet))]
		case 1:
			b = append(b[:pos], b[pos+1:]...)
		case 2:
			b = append(b[:pos], append([]byte{alphabet[r.Intn(len(alphabet))]}, b[pos:]...)...)
		case 3:
			b = b[:pos]
		}
	}
	return string(b)
}

// fuzzBudget bounds every fuzzed evaluation along all four axes, so a
// mutation that produces a legal divergent program (oid invention,
// counting recursion) fails bounded instead of hanging the fuzzer.
var fuzzBudget = Budget{MaxRounds: 200, MaxFacts: 20000, MaxOIDs: 1000, Timeout: 2 * time.Second}

func TestPipelineNeverPanics(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if rec := recover(); rec != nil {
				t.Logf("panic with seed %d: %v", seed, rec)
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		schemaSrc := fuzzSchemas[r.Intn(len(fuzzSchemas))]
		modSrc := fuzzModules[r.Intn(len(fuzzModules))]
		// Mutate one of the two (mutating both rarely gets past parsing).
		if r.Intn(2) == 0 {
			schemaSrc = mutate(r, schemaSrc)
		} else {
			modSrc = mutate(r, modSrc)
		}
		db, err := Open(schemaSrc, WithBudget(fuzzBudget))
		if err != nil {
			return true
		}
		if _, err := db.Exec(modSrc); err != nil {
			return true
		}
		_, _ = db.Query(`?- parent(par: X).`)
		_, _ = db.InstanceString()
		var sb strings.Builder
		_ = db.Save(&sb2{&sb})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPipeline is the native fuzz target over (schema, module) source
// pairs: the full pipeline runs under fuzzBudget and must neither panic
// nor mutate the database on a failed application. The corpus seeds
// include a legal divergent module, so the guardrails themselves are on
// the fuzzed path from generation zero.
func FuzzPipeline(f *testing.F) {
	for _, s := range fuzzSchemas {
		for _, m := range fuzzModules {
			f.Add(s, m)
		}
	}
	// A divergent counting module against the EDGE/TC schema: only the
	// budget stops it.
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  tc(src: 0, dst: 0).
  tc(src: X, dst: Y) <- tc(src: X, dst: W), Y = W + 1.
end.
`)
	// A recursive closure with negation the columnar compiler accepts, so
	// the vectorized differential leg below is exercised from generation
	// zero (mutations of it probe the row/columnar boundary).
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 3).
  edge(src: 3, dst: 1).
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
`)
	// Deletion-heavy commit sequences (modules separated by "---") so the
	// incremental leg's DRed delete/rederive path is fuzzed from
	// generation zero: parallel support paths where removing one edge must
	// rederive the closure facts the other still supports, then removing
	// the second genuinely deletes them.
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 4).
  edge(src: 1, dst: 3).
  edge(src: 3, dst: 4).
end.
---
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode rddv.
rules
  edge(src: 1, dst: 2).
end.
---
mode rddv.
rules
  edge(src: 3, dst: 4).
  edge(src: 2, dst: 4).
end.
`)
	f.Add(fuzzSchemas[1], `
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode ridv.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 3).
  edge(src: 3, dst: 1).
end.
---
mode rddv.
rules
  edge(src: 2, dst: 3).
end.
---
mode ridv.
rules
  edge(src: 2, dst: 3).
end.
`)
	// A shortcut inserted into and then deleted from a closure over a
	// chain numbered downwards, so the closure's key order runs against
	// the chain: DRed probes each over-deleted fact once and the
	// insertion pass restores the facts whose support is itself
	// over-deleted.
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 8, dst: 7).
  edge(src: 7, dst: 6).
  edge(src: 6, dst: 5).
  edge(src: 5, dst: 4).
  edge(src: 4, dst: 3).
  edge(src: 3, dst: 2).
  edge(src: 2, dst: 1).
  edge(src: 1, dst: 0).
  edge(src: 8, dst: 5).
end.
---
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode ridv.
rules
  edge(src: 6, dst: 2).
end.
---
mode rddv.
rules
  edge(src: 6, dst: 2).
end.
`)
	// The parallel-paths and downward-chain sequences above with the
	// rules installed data-invariant (RADI): RADV stores the closure in
	// E, so their deletes remove no tc fact and every fact DRed
	// over-deletes is still extensional. Here the closure stays derived:
	// a delete over-deletes what the edge supported, probes it, and
	// rederives what another path still supports. The chain's twin ends
	// by cutting the chain below the shortcut 8→5, which deletes every
	// tc fact from 4…8 to 0…3.
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 4).
  edge(src: 1, dst: 3).
  edge(src: 3, dst: 4).
end.
---
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode rddv.
rules
  edge(src: 1, dst: 2).
end.
---
mode rddv.
rules
  edge(src: 3, dst: 4).
  edge(src: 2, dst: 4).
end.
`)
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 8, dst: 7).
  edge(src: 7, dst: 6).
  edge(src: 6, dst: 5).
  edge(src: 5, dst: 4).
  edge(src: 4, dst: 3).
  edge(src: 3, dst: 2).
  edge(src: 2, dst: 1).
  edge(src: 1, dst: 0).
  edge(src: 8, dst: 5).
end.
---
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode ridv.
rules
  edge(src: 6, dst: 2).
end.
---
mode rddv.
rules
  edge(src: 6, dst: 2).
end.
---
mode rddv.
rules
  edge(src: 4, dst: 3).
end.
`)
	// Cyclic self-support: 3 and 4 support each other, so deleting 2→4
	// must delete tc(1,3), tc(1,4), tc(2,3) and tc(2,4), whose only other
	// support runs round the cycle back through the removed edge. After
	// 2→4 and 1→4 return, deleting 2→4 again keeps tc(1,4) through 1→4
	// but not tc(2,4): only part of the over-deletion is deleted. The
	// rules arrive data-invariant (RADI), so tc stays derived: RADV would
	// store the closure in E, and no edge delete could remove it.
	f.Add(fuzzSchemas[1], `
mode ridv.
rules
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 4).
  edge(src: 4, dst: 3).
  edge(src: 3, dst: 4).
end.
---
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
end.
---
mode rddv.
rules
  edge(src: 2, dst: 4).
end.
---
mode ridv.
rules
  edge(src: 2, dst: 4).
  edge(src: 1, dst: 4).
end.
---
mode rddv.
rules
  edge(src: 2, dst: 4).
end.
`)
	// A class-bearing commit sequence under a denial: association writes
	// take the delta audit, class writes the full one, and the last
	// commit violates the denial.
	f.Add(`
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
  COURSE = (code: NAME);
associations
  INTAKE = (name: NAME);
  ENROLLED = (student: STUDENT, course: COURSE);
  MARK = (student: STUDENT, code: NAME, grade: integer);
`, `
mode ridv.
rules
  intake(name: "a").
  intake(name: "b").
  student(self: S, name: N, year: 1) <- intake(name: N).
  course(self: C, code: "db") <- intake(name: "a").
end.
---
mode radi.
rules
  <- mark(student: S, code: C, grade: G1), mark(student: S, code: C, grade: G2), G1 != G2.
end.
---
mode ridv.
rules
  enrolled(student: S, course: C) <- student(self: S), course(self: C).
  mark(student: S, code: "db", grade: 28) <- student(self: S, name: "a").
end.
---
mode ridv.
rules
  not enrolled(student: S, course: C) <- student(self: S, name: "b"), enrolled(student: S, course: C).
end.
---
mode ridv.
rules
  mark(student: S, code: "db", grade: 30) <- student(self: S, name: "a").
end.
`)
	// A three-level hierarchy (TA below STUDENT below PERSON below AGENT)
	// with a diamond (TA isa STUDENT and EMPLOYEE, both isa PERSON): the
	// generated isa rules propagate new objects up every path, and the
	// later commits change inherited components of existing objects, so
	// ⊕ overwrites their super objects level by level. The last adds TA
	// objects to a state closed under the isa steps: they reach AGENT
	// round by round through steps that visit only what changed.
	f.Add(`
domains NAME = string;
classes
  AGENT = (name: NAME);
  PERSON = (AGENT, age: integer);
  STUDENT = (PERSON, year: integer);
  EMPLOYEE = (PERSON, salary: integer);
  TA = (STUDENT, EMPLOYEE, hours: integer);
  PERSON isa AGENT;
  STUDENT isa PERSON;
  EMPLOYEE isa PERSON;
  TA isa STUDENT;
  TA isa EMPLOYEE;
associations
  INTAKE = (name: NAME);
`, `
mode ridv.
rules
  intake(name: "a").
  intake(name: "b").
  ta(self: T, name: N, age: 20, year: 1, salary: 100, hours: 10) <- intake(name: N).
  student(self: S, name: "c", age: 19, year: 2) <- intake(name: "a").
end.
---
mode ridv.
rules
  ta(self: T, age: 21) <- ta(self: T, name: "a").
end.
---
mode ridv.
rules
  student(self: S, name: "d") <- student(self: S, name: "c").
end.
---
mode ridv.
rules
  intake(name: "e").
  intake(name: "f").
  ta(self: T, name: N, age: 22, year: 3, salary: 50, hours: 5) <- intake(name: N), not student(name: N).
end.
`)
	// Commits whose isa steps run over a state closed under them, so
	// each visits only the objects that changed, against the full pass
	// (dbf): a deletion head on PERSON in the isa steps' own stratum that
	// hits the object the same round's isa step overwrites; a new isa
	// edge between existing classes and a new subclass (RADV), each a new
	// schema, so a full pass; a class head that changes one STUDENT; a
	// PERSON renamed once while its STUDENT stays, which the step must
	// restore; and last the deletion that oscillates with the isa step
	// until the round bound aborts it.
	f.Add(`
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
  WORKER = (name: NAME, wage: integer);
associations
  INTAKE = (name: NAME);
  HIDE = (name: NAME);
`, `
mode ridv.
rules
  intake(name: "a").
  intake(name: "b").
  student(self: S, name: N, year: 1) <- intake(name: N).
  worker(self: W, name: N, wage: 5) <- intake(name: N).
end.
---
mode ridv.
rules
  hide(name: "a").
  student(self: S, name: "c") <- student(self: S, name: "a").
  not person(self: P, name: "a") <- student(self: P, name: "c"), hide(name: "a").
end.
---
mode radv.
classes
  WORKER isa PERSON;
rules
  worker(self: W, wage: 6) <- worker(self: W, name: "b").
end.
---
mode radv.
classes
  ADVISOR = (PERSON, topic: NAME);
  ADVISOR isa PERSON;
rules
  advisor(self: P, name: N, topic: "db") <- student(self: P, name: N), hide(name: "a").
end.
---
mode ridv.
rules
  student(self: S, year: 2) <- student(self: S, name: "b").
end.
---
mode ridv.
rules
  person(self: P, name: "z") <- student(self: P, name: "b"), not hide(name: "done").
  hide(name: "done") <- person(name: "z").
end.
---
mode ridv.
rules
  hide(name: "b").
  not person(self: X) <- student(self: X, name: N), hide(name: N).
end.
`)
	// Size-neutral swaps inside one data function under a denial that
	// reads it: the delta must carry the function's facts, and the last
	// swap violates the denial.
	f.Add(`
domains NAME = string;
associations
  PARENT = (par: NAME, chil: NAME);
functions
  KIDS: NAME -> {NAME};
`, `
mode ridv.
rules
  parent(par: "a", chil: "b").
  member("b", kids("a")).
end.
---
mode radi.
rules
  <- parent(par: P), member("z", kids(P)).
end.
---
mode ridv.
rules
  member("c", kids("a")).
  not member("b", kids(P)) <- parent(par: P).
end.
---
mode ridv.
rules
  member("z", kids("a")).
  not member("c", kids(P)) <- parent(par: P).
end.
`)
	// Oids invented over a non-linear closure: the columnar kernels, the
	// row oracle and the maintainer each grow TC's buckets in their own
	// order, and all three must number MARK's objects alike, after the
	// rules arrive and after edges are added and deleted.
	f.Add(`
classes
  MARK = (tag: integer);
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`, `
mode ridv.
rules
  edge(src: 0, dst: 1).
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 3).
  edge(src: 3, dst: 4).
  edge(src: 4, dst: 5).
  edge(src: 5, dst: 6).
  edge(src: 6, dst: 0).
end.
---
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), tc(src: Y, dst: Z).
  mark(tag: Y) <- tc(src: 1, dst: Y).
end.
---
mode ridv.
rules
  edge(src: 1, dst: 7).
  edge(src: 7, dst: 3).
end.
---
mode rddv.
rules
  edge(src: 6, dst: 0).
end.
`)
	// An inventing rule on the closure's level of the dependency graph,
	// which runs as a stratum of its own after the closure, and an isa
	// step above it, each reaching its fixpoint in its first step.
	f.Add(`
classes
  V = (id: integer);
  W = (V, rank: integer);
  W isa V;
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`, `
mode ridv.
rules
  edge(src: 0, dst: 1).
  edge(src: 1, dst: 2).
  edge(src: 2, dst: 0).
  edge(src: 3, dst: 0).
end.
---
mode radv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  w(self: S, id: X, rank: 1) <- edge(src: X, dst: 0).
end.
---
mode ridv.
rules
  edge(src: 4, dst: 0).
  edge(src: 2, dst: 4).
end.
---
mode rddv.
rules
  edge(src: 3, dst: 0).
end.
`)
	// An invention into the super class of an isa step, in the isa
	// step's stratum, while a lower stratum renames the object whose P
	// fact satisfies the invention's head: the isa step copies the new
	// name up in the first step, so the head holds of no object until
	// the invention fires in the second.
	f.Add(`
classes
  P = (name: string);
  A = (P, x: integer);
  A isa P;
associations
  Q = (n: integer);
`, `
mode ridv.
rules
  q(n: 1).
  a(self: S, name: "old", x: 1) <- q(n: 1).
end.
---
mode radv.
rules
  a(self: X, name: "new", x: 2) <- a(self: X, name: "old").
  p(self: S, name: "old") <- q(n: 1).
end.
`)
	// Rule-bearing RIDI modules over a class-bearing state under a
	// denial: one accepted, which audits only what its rules add; one
	// whose head tuples reference a PERSON that is no STUDENT; one whose
	// head the denial reads. Each is held to the full audit of its work
	// state (ridiMatchesFullAudit).
	for _, ridi := range []string{`
mode ridi.
rules
  enrolled(student: S, course: C) <- student(self: S), course(self: C).
goal
  ?- enrolled(student: S).
end.
`, `
mode ridi.
rules
  enrolled(student: S, course: C) <- person(self: S), course(self: C).
end.
`, `
mode ridi.
rules
  mark(student: S, code: "db", grade: 30) <- student(self: S, name: "a").
end.
`} {
		f.Add(`
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
  COURSE = (code: NAME);
associations
  INTAKE = (name: NAME);
  ENROLLED = (student: STUDENT, course: COURSE);
  MARK = (student: STUDENT, code: NAME, grade: integer);
`, `
mode ridv.
rules
  intake(name: "a").
  intake(name: "b").
  student(self: S, name: N, year: 1) <- intake(name: N).
  course(self: C, code: "db") <- intake(name: "a").
  person(self: P, name: "p") <- intake(name: "a").
  mark(student: S, code: "db", grade: 28) <- student(self: S, name: "a").
end.
---
mode radi.
rules
  <- mark(student: S, code: C, grade: G1), mark(student: S, code: C, grade: G2), G1 != G2.
end.
---`+ridi)
	}
	f.Fuzz(func(t *testing.T, schemaSrc, modSrc string) {
		// db is the row oracle; dbv and dbi run the defaults (columnar
		// kernels where a stratum compiles to them), dbi incrementally,
		// dbf runs them with every isa pass a full pass, the reference
		// the other legs' Δ-local isa passes are held to, and dbp with
		// every program planned as a plain stratification (each level
		// one stratum, each one-step stratum confirming its fixpoint),
		// the reference the split levels and one-step stops are held to.
		db, err := Open(schemaSrc, rowOracle(WithBudget(fuzzBudget))...)
		if err != nil {
			return
		}
		dbf, errf := Open(schemaSrc, WithBudget(fuzzBudget))
		if errf != nil {
			t.Fatalf("full-isa-pass open diverged: %v", errf)
		}
		dbv, errv := Open(schemaSrc, WithBudget(fuzzBudget))
		if errv != nil {
			t.Fatalf("default-options open diverged: %v", errv)
		}
		dbi, erri := Open(schemaSrc, WithBudget(fuzzBudget), WithIncremental(true))
		if erri != nil {
			t.Fatalf("incremental open diverged: %v", erri)
		}
		var dbp *Database
		var errp error
		withPlanReference(func() { dbp, errp = Open(schemaSrc, WithBudget(fuzzBudget)) })
		if errp != nil {
			t.Fatalf("reference-plan open diverged: %v", errp)
		}
		// The source is a commit sequence: modules separated by "---"
		// lines apply in order (a plain module is a one-commit sequence),
		// so mutations explore incremental maintenance across deltas, not
		// just single applications.
		for _, modSrc := range strings.Split(modSrc, "\n---\n") {
			var before strings.Builder
			if err := db.Save(&sb2{&before}); err != nil {
				t.Fatalf("save: %v", err)
			}
			_, errRow := db.Exec(modSrc)
			_, errVec := dbv.Exec(modSrc)
			_, errInc := dbi.Exec(modSrc)
			if dbi.snap.Load().maint == nil {
				// Every commit, and every rejection, leaves a maintainer
				// serving the published state.
				t.Fatalf("no maintainer serves the incremental database's published state")
			}
			var errFull, errPlan error
			withIsaFullPass(func() { _, errFull = dbf.Exec(modSrc) })
			withPlanReference(func() { _, errPlan = dbp.Exec(modSrc) })
			ridiMatchesFullAudit(t, "row oracle", db, modSrc)
			ridiMatchesFullAudit(t, "defaults", dbv, modSrc)
			ridiMatchesFullAudit(t, "incremental", dbi, modSrc)
			if errRow != nil {
				// A failed application (parse error, rejection, or budget
				// abort) must leave the database bit-identical.
				var after strings.Builder
				if err := db.Save(&sb2{&after}); err != nil {
					t.Fatalf("save after abort: %v", err)
				}
				if before.String() != after.String() {
					t.Fatalf("failed application mutated the database")
				}
				return
			}
			// When the engines agree on acceptance, the persisted state
			// must be byte-identical. (Success can legitimately differ
			// only through the wall-clock budget axis, so a one-sided
			// abort is not comparable.)
			// Every accepted commit passes the full audit, whichever audit
			// admitted it.
			fullAudit(t, "row oracle", db)
			var row strings.Builder
			if err := db.Save(&sb2{&row}); err != nil {
				t.Fatalf("save row: %v", err)
			}
			if errVec == nil {
				fullAudit(t, "defaults", dbv)
				var vec strings.Builder
				if err := dbv.Save(&sb2{&vec}); err != nil {
					t.Fatalf("save vectorized: %v", err)
				}
				if row.String() != vec.String() {
					t.Fatalf("the row oracle and the defaults persisted different databases")
				}
			}
			if errFull == nil {
				var full strings.Builder
				var got string
				var errG error
				withIsaFullPass(func() {
					if err := dbf.Save(&sb2{&full}); err != nil {
						t.Fatalf("save full isa pass: %v", err)
					}
					got, errG = dbf.InstanceString()
				})
				if row.String() != full.String() {
					t.Fatalf("the row oracle and the full isa pass persisted different databases")
				}
				want, errW := db.InstanceString()
				if errW == nil && errG == nil && want != got {
					t.Fatalf("the full isa pass rendered a different instance")
				}
			}
			if errVec == nil && errPlan == nil {
				var plan, vec strings.Builder
				var got string
				var errG error
				withPlanReference(func() {
					if err := dbp.Save(&sb2{&plan}); err != nil {
						t.Fatalf("save reference plan: %v", err)
					}
					got, errG = dbp.InstanceString()
				})
				if err := dbv.Save(&sb2{&vec}); err != nil {
					t.Fatalf("save vectorized: %v", err)
				}
				if plan.String() != vec.String() {
					t.Fatalf("the defaults and the reference plan persisted different databases")
				}
				want, errW := dbv.InstanceString()
				if errW == nil && errG == nil && want != got {
					t.Fatalf("the defaults and the reference plan rendered different instances")
				}
			}
			if errInc == nil {
				fullAudit(t, "incremental", dbi)
				var inc strings.Builder
				if err := dbi.Save(&sb2{&inc}); err != nil {
					t.Fatalf("save incremental: %v", err)
				}
				if row.String() != inc.String() {
					t.Fatalf("incremental application persisted a different database")
				}
				// The maintained instance must render exactly what a
				// from-scratch evaluation of the same state renders.
				want, errW := db.InstanceString()
				got, errG := dbi.InstanceString()
				if errW == nil && errG == nil && want != got {
					t.Fatalf("incremental instance diverged from from-scratch replay")
				}
			} else {
				// Acceptance may only diverge through wall-clock budget
				// aborts; a rejected application still must not have
				// mutated the incremental database's committed state.
				var inc strings.Builder
				if err := dbi.Save(&sb2{&inc}); err != nil {
					t.Fatalf("save incremental after abort: %v", err)
				}
				if inc.String() != before.String() {
					t.Fatalf("failed incremental application mutated the database")
				}
				return
			}
		}
		_, _ = db.Query(`?- parent(par: X).`)
		_, _ = db.InstanceString()
	})
}

// fullAudit fails the test unless the database's published state passes
// the full audit from scratch, and that audit reads as the instance and
// legacy audits do (auditMatches). Only the wall-clock budget axis, which
// a second derivation can trip where the first did not, excuses an
// error.
func fullAudit(t *testing.T, leg string, db *Database) {
	t.Helper()
	err := db.CheckConsistency()
	var be *BudgetError
	if err != nil && !(errors.As(err, &be) && be.Axis == AxisDeadline) {
		t.Fatalf("%s: an accepted commit fails the full audit: %v", leg, err)
	}
	auditMatchesPublished(t, leg, db)
}

// ridiMatchesFullAudit fails the test unless a rule-bearing RIDI module,
// applied without its goal to db's published state, decides as the full
// audit of its work state decides — R ∪ R_M over E, under S ∪ S_M and
// the module's semantics — with the same error text. Any other source is
// skipped, and so is a pair the wall-clock budget axis ended.
func ridiMatchesFullAudit(t *testing.T, leg string, db *Database, src string) {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil || m.Mode != RIDI || len(m.Rules) == 0 {
		return
	}
	bare := *m
	bare.Goal = nil
	_, got := db.Apply(&bare, RIDI)
	want := ridiWorkAudit(db, m)
	var be *BudgetError
	if errors.As(got, &be) && be.Axis == AxisDeadline || errors.As(want, &be) && be.Axis == AxisDeadline {
		return
	}
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: a RIDI module's audit says %v, the full audit of its work state %v", leg, got, want)
	}
}

// sb2 adapts strings.Builder to io.Writer without importing io in tests.
type sb2 struct{ b *strings.Builder }

func (w *sb2) Write(p []byte) (int, error) { return w.b.Write(p) }

func TestPipelineUnmutatedModulesWork(t *testing.T) {
	db, err := Open(fuzzSchemas[1], WithBudget(Budget{MaxRounds: 500}))
	if err != nil {
		t.Fatal(err)
	}
	// Seed edges so the denial in module 1 doesn't trip.
	if _, err := db.Exec(`
mode ridv.
rules
  edge(src: 1, dst: 2).
end.
`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(fuzzModules[1]); err != nil {
		t.Fatal(err)
	}
	n, err := db.Count("tc")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("tc = %d", n)
	}
}
