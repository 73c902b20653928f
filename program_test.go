package logres

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
)

// compiles runs fn and returns, in order, the number of rules of every
// program it compiled (the generated isa rules not counted).
func compiles(fn func()) []int {
	var mu sync.Mutex
	var rules []int
	hooks.Compiled = func(n int) {
		mu.Lock()
		rules = append(rules, n)
		mu.Unlock()
	}
	defer func() { hooks.Compiled = nil }()
	fn()
	return rules
}

// A registrar enrol or drop commit keeps S and R, so it compiles only its
// update program, over its one rule, with the isa steps taken from the
// state's compiled program; the persistent program is the committed
// state's, carried forward. A point query compiles nothing. A commit that
// changes R (a RADV) or S (a declared type equation) compiles the new
// persistent program, and so does the first use of the state Materialize
// publishes, whose R it cleared.
func TestRegistrarCommitCompilesOnlyItsModule(t *testing.T) {
	for _, scale := range []int{1, 16} {
		t.Run(fmt.Sprintf("enrolled=x%d", scale), func(t *testing.T) {
			db := registrarPreload(t, registrarSchema, scale)
			for i := 0; i < 4; i++ {
				if got := compiles(func() { registrarEnrolDrop(t, db, i) }); !slices.Equal(got, []int{1}) {
					t.Fatalf("commit %d compiled programs over %v rules, want [1]", i, got)
				}
			}
			if got := compiles(func() {
				if _, err := db.Query(`?- student(self: S, name: "s0001").`); err != nil {
					t.Fatal(err)
				}
			}); len(got) != 0 {
				t.Fatalf("a point query compiled programs over %v rules, want none", got)
			}
			// A RIDI report that declares nothing compiles its own rule
			// over the state's compiled program (its denial, its isa steps).
			report := "mode ridi.\nrules\n  mark(student: S, code: \"r\", grade: 30) <- student(self: S, name: \"s0001\").\ngoal\n  ?- mark(student: S, code: \"r\", grade: G).\nend.\n"
			if got := compiles(func() {
				res, err := db.Exec(report)
				if err != nil {
					t.Fatal(err)
				}
				if res.Answer == nil || len(res.Answer.Rows) != 1 {
					t.Fatalf("the report answered %v, want one row", res.Answer)
				}
			}); !slices.Equal(got, []int{1}) {
				t.Fatalf("a one-rule RIDI report compiled programs over %v rules, want [1]", got)
			}

			n := db.RuleCount()
			radv := "mode radv.\nrules\n  mark(student: S, code: \"c999\", grade: 30) <- student(self: S, name: \"nobody\").\nend.\n"
			if got := compiles(func() {
				if _, err := db.Exec(radv); err != nil {
					t.Fatal(err)
				}
			}); !slices.Equal(got, []int{1, n + 1}) {
				t.Fatalf("a RADV compiled programs over %v rules, want [1 %d]", got, n+1)
			}
			declare := "mode ridv.\nassociations\n  NOTE = (text: string);\nrules\n  note(text: \"x\").\nend.\n"
			if got := compiles(func() {
				if _, err := db.Exec(declare); err != nil {
					t.Fatal(err)
				}
			}); !slices.Equal(got, []int{1, n + 1}) {
				t.Fatalf("a declaring RIDV compiled programs over %v rules, want [1 %d]", got, n+1)
			}
			// Materialize runs R as its update program, then clears R: the
			// state it publishes compiles its program, over no rule, on
			// first use.
			if got := compiles(func() {
				if err := db.Materialize(); err != nil {
					t.Fatal(err)
				}
			}); !slices.Equal(got, []int{n + 1}) {
				t.Fatalf("Materialize compiled programs over %v rules, want [%d]", got, n+1)
			}
			if got := compiles(func() {
				if _, err := db.Query(`?- student(self: S, name: "s0001").`); err != nil {
					t.Fatal(err)
				}
			}); !slices.Equal(got, []int{0}) {
				t.Fatalf("the first query after Materialize compiled programs over %v rules, want [0]", got)
			}
			if got := compiles(func() { registrarEnrolDrop(t, db, 4) }); !slices.Equal(got, []int{1}) {
				t.Fatalf("a commit after Materialize compiled programs over %v rules, want [1]", got)
			}
		})
	}
}

// programSchema has an isa hierarchy, so every program carries generated
// isa steps after the rules of its own.
const programSchema = `
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, school: NAME);
  STUDENT isa PERSON;
associations
  KNOWS = (a: NAME, b: NAME);
  REACH = (a: NAME, b: NAME);
  TAG = (t: NAME);
`

// assertProgramFresh checks that the program st carries for opts is the
// program a fresh Compile of (S, R) gives: the same Explain text (rule
// ids, strata, plans), the same footprint, and, run over E, the same
// result and the same statistics by rule id.
func assertProgramFresh(t *testing.T, step string, st *module.State, opts engine.Options) {
	t.Helper()
	memo, err := st.Program(opts)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	fresh, err := engine.Compile(st.S, st.R, opts)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got, want := memo.Explain(), fresh.Explain(); got != want {
		t.Fatalf("%s: the state's program explains as\n%s\nwant\n%s", step, got, want)
	}
	if got, want := memo.Footprint(), fresh.Footprint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the state's program has footprint %+v, want %+v", step, got, want)
	}
	c1, c2 := st.Counter, st.Counter
	f1, err1 := memo.Run(st.E, &c1)
	f2, err2 := fresh.Run(st.E, &c2)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: run errors %v and %v", step, err1, err2)
	}
	if err1 == nil && (!f1.Equal(f2) || c1 != c2) {
		t.Fatalf("%s: the state's program derives another instance", step)
	}
	if got, want := memo.Explain(), fresh.Explain(); got != want {
		t.Fatalf("%s: after a run the state's program explains as\n%s\nwant\n%s", step, got, want)
	}
}

// A state's memoised program is never stale: after commits of each of
// the six modes, Materialize (which clears R after the commit), Load and
// a merge commit, the published state's program equals a fresh
// compilation of its (S, R), under the default, row-engine and
// incremental configurations.
func TestStateProgramNeverStale(t *testing.T) {
	configs := map[string][]Option{
		"default":     nil,
		"row":         {WithVectorize(false)},
		"incremental": {WithIncremental(true)},
	}
	steps := []struct{ name, src string }{
		{"ridv", "mode ridv.\nrules\n  knows(a: \"ann\", b: \"bob\"). knows(a: \"bob\", b: \"cy\").\n  student(self: S, name: \"ann\", school: \"x\") <- knows(a: \"ann\").\nend.\n"},
		{"radv", "mode radv.\nrules\n  reach(a: X, b: Y) <- knows(a: X, b: Y).\n  reach(a: X, b: Z) <- reach(a: X, b: Y), knows(a: Y, b: Z).\nend.\n"},
		{"ridi", "mode ridi.\nrules\n  tag(t: X) <- reach(a: X).\ngoal\n  ?- tag(t: X).\nend.\n"},
		{"radi", "mode radi.\nrules\n  tag(t: N) <- person(name: N).\nend.\n"},
		{"radi-nothing", "mode radi.\nend.\n"},
		{"ridv-after-radi", "mode ridv.\nrules\n  knows(a: \"cy\", b: \"dan\").\nend.\n"},
		{"rddi", "mode rddi.\nrules\n  tag(t: N) <- person(name: N).\nend.\n"},
		{"rddv", "mode rddv.\nrules\n  reach(a: X, b: Z) <- reach(a: X, b: Y), knows(a: Y, b: Z).\n  knows(a: \"cy\", b: \"dan\").\nend.\n"},
		{"ridv-redeclaring", "mode ridv.\nassociations\n  TAG = (t: NAME);\nrules\n  tag(t: \"q\").\nend.\n"},
		{"radv-declaring", "mode radv.\nassociations\n  NOTE = (text: string);\nrules\n  note(text: N) <- person(name: N).\nend.\n"},
	}
	for name, options := range configs {
		t.Run(name, func(t *testing.T) {
			db, err := Open(programSchema, options...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				if _, err := db.Exec(s.src); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				assertProgramFresh(t, s.name, db.snap.Load().st, db.opts)
			}

			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf, options...)
			if err != nil {
				t.Fatal(err)
			}
			assertProgramFresh(t, "load", loaded.snap.Load().st, loaded.opts)

			if err := db.Materialize(); err != nil {
				t.Fatal(err)
			}
			assertProgramFresh(t, "materialize", db.snap.Load().st, db.opts)

			if _, err := db.Exec("mode radv.\nrules\n  reach(a: X, b: Y) <- knows(a: X, b: Y).\nend.\n"); err != nil {
				t.Fatal(err)
			}
			hooks.ConcurrentPreCommit = func(attempt int) {
				if attempt == 0 {
					execLocked(t, db, "mode ridv.\nrules\n  tag(t: \"z\").\nend.\n")
				}
			}
			defer func() { hooks.ConcurrentPreCommit = nil }()
			rt := &recordingTracer{}
			db.SetTracer(rt)
			if _, err := db.Exec("mode ridv.\nrules\n  knows(a: \"dan\", b: \"eve\").\nend.\n"); err != nil {
				t.Fatal(err)
			}
			db.SetTracer(nil)
			hooks.ConcurrentPreCommit = nil
			merged := false
			for _, ev := range rt.events {
				merged = merged || ev.Kind == obs.KindModuleCommit && ev.Detail == "merge"
			}
			if !merged {
				t.Fatal("the concurrent commit did not take the merge path")
			}
			assertProgramFresh(t, "merge", db.snap.Load().st, db.opts)
		})
	}
}

// The maintainer runs a fork of the published state's program, and a
// commit that keeps S and R keeps that program: a commit that redeclares
// only a type S already holds keeps S, so it propagates through the
// maintainer instead of rebuilding it.
func TestRedeclaringCommitKeepsMaintainer(t *testing.T) {
	db, err := Open("associations\n  E = (a: integer);\n  F = (a: integer);\n", WithIncremental(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode radi.\nrules\n  f(a: X) <- e(a: X).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	rt := &recordingTracer{}
	db.SetTracer(rt)
	if _, err := db.Exec("mode ridv.\nassociations\n  E = (a: integer);\nrules\n  e(a: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	db.SetTracer(nil)
	if n := rt.count(obs.KindIVMRebuild); n != 0 {
		t.Fatalf("the commit rebuilt the maintainer %d times, want 0", n)
	}
	if n := rt.count(obs.KindIVMPropagate); n != 1 {
		t.Fatalf("the commit propagated %d times, want 1", n)
	}
	if n, err := db.Count("f"); err != nil || n != 1 {
		t.Fatalf("f holds %d facts (%v), want 1", n, err)
	}
}
