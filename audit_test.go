package logres

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/value"
)

// The delta audit of a data-variant commit against the full audit it
// replaces: on a class-bearing schema with a persistent rule and a
// denial, every commit — accepted or rejected, through the optimistic or
// the locked attempt, on scratch and incremental databases — must decide as
// State.Instance decides on the resulting state, with the same error
// text, and every accepted state must pass the full audit.

const auditSchema = `
domains
  NAME = string;
  CODE = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
  SECTION = (code: CODE, capacity: integer);
associations
  ENROLLED = (student: STUDENT, section: SECTION);
  MARK = (student: STUDENT, code: CODE, grade: integer);
  INTAKE = (name: NAME);
  OFFERING = (code: CODE, capacity: integer);
  CATALOG = (code: CODE);
functions
  TAUGHT: CODE -> {NAME};
`

var auditPreload = []string{`
mode ridv.
rules
  intake(name: "ann"). intake(name: "bob").
  offering(code: "db101", capacity: 2). offering(code: "lp201", capacity: 1).
  member("ann", taught("db101")).
end.
`, `
mode ridv.
rules
  student(self: S, name: N, year: 1) <- intake(name: N).
  section(self: X, code: C, capacity: K) <- offering(code: C, capacity: K).
end.
`, `
mode ridv.
rules
  enrolled(student: S, section: X) <- student(self: S, name: "ann"), section(self: X, code: "db101").
  mark(student: S, code: "db101", grade: 28) <- student(self: S, name: "ann").
end.
`, `
mode radi.
rules
  catalog(code: C) <- offering(code: C).
  <- mark(student: S, code: C, grade: G1), mark(student: S, code: C, grade: G2), G1 != G2.
  <- catalog(code: "void").
  <- offering(code: C), member("zed", taught(C)).
end.
`}

// auditPreloaded returns the preloaded database's snapshot.
func auditPreloaded(t testing.TB) []byte {
	t.Helper()
	db, err := Open(auditSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range auditPreload {
		if _, err := db.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	var b bytes.Buffer
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestIncrementalDeltaAuditMatchesFullAudit(t *testing.T) {
	snap := auditPreloaded(t)
	// danglingEnrol references an oid no object holds, as a constant, from
	// one tuple per section: two violations, reported in key order.
	danglingEnrol, err := parser.ParseModule(`
rules
  enrolled(student: S, section: X) <- section(self: X).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	danglingEnrol.Rules[0].Head.Args[0].Term = ast.Const{Val: value.Ref(999)}

	cases := []struct {
		name   string
		src    string      // an RIDV module's rules
		mod    *ast.Module // when src cannot spell the module
		accept bool
		// audit is what an accepted scratch commit reports; incremental
		// commits audit the exact view delta, so a rule reading the write
		// does not force the full audit there (incAudit, when different).
		audit, incAudit string
	}{
		{name: "valid enrol", accept: true, audit: module.AuditDelta,
			src: `enrolled(student: S, section: X) <- student(self: S, name: "bob"), section(self: X, code: "lp201").`},
		{name: "dangling oid constant", mod: danglingEnrol},
		{name: "duplicate mark",
			src: `mark(student: S, code: "db101", grade: 20) <- student(self: S, name: "ann").`},
		{name: "tuple removal", accept: true, audit: module.AuditDelta,
			src: `not enrolled(student: S, section: X) <- student(self: S, name: "ann"), enrolled(student: S, section: X).`},
		{name: "rule-read write", accept: true, audit: "full: rule reads or heads offering", incAudit: module.AuditDelta,
			src: `offering(code: "cs300", capacity: 5).`},
		// Only the derived catalog fact violates a denial: no denial reads
		// the written predicate itself.
		{name: "rule-read write, derived violation",
			src: `offering(code: "void", capacity: 0).`},
		// A size-neutral swap inside one function: the delta must name the
		// function's facts although its size did not move.
		{name: "function swap", accept: true, audit: module.AuditDelta,
			src: `member("bea", taught("db101")). not member("ann", taught(C)) <- offering(code: C), C = "db101".`},
		{name: "function swap, denial",
			src: `member("zed", taught("db101")). not member("ann", taught(C)) <- offering(code: C), C = "db101".`},
		{name: "class-fact add", accept: true, audit: "full: class fact in delta",
			src: `intake(name: "cho"). student(self: S, name: N, year: 1) <- intake(name: N).`},
		{name: "class removal",
			src: `not section(code: C) <- offering(code: C), C = "db101".`},
	}
	for _, c := range cases {
		m := c.mod
		if m == nil {
			if m, err = parser.ParseModule("rules\n  " + c.src + "\nend.\n"); err != nil {
				t.Fatal(err)
			}
		}
		for _, inc := range []bool{false, true} {
			for _, concurrent := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/incremental=%v/concurrent=%v", c.name, inc, concurrent), func(t *testing.T) {
					db, err := Load(bytes.NewReader(snap), WithIncremental(inc))
					if err != nil {
						t.Fatal(err)
					}
					// The reference: the full audit of the state the commit
					// would install.
					_, _, want := unauditedRIDV(t, db.snap.Load().st, m, db.opts).Instance(db.opts)
					if (want == nil) != c.accept {
						t.Fatalf("the full audit says %v; the case expects accept=%v", want, c.accept)
					}

					// concurrent=false takes the locked attempt (the retry
					// budget's last), concurrent=true the optimistic one.
					var p Profile
					hooks.LockedApply.Store(!concurrent)
					_, err = db.Apply(m, RIDV, WithCallProfile(&p))
					hooks.LockedApply.Store(false)
					if want != nil {
						if err == nil || err.Error() != "module: rejected: "+want.Error() {
							t.Fatalf("got %v\nwant module: rejected: %v", err, want)
						}
						return
					}
					if err != nil {
						t.Fatalf("the full audit accepts the commit, the delta audit rejects it: %v", err)
					}
					if err := db.CheckConsistency(); err != nil {
						t.Fatalf("accepted state fails the full audit: %v", err)
					}
					// The instance reads serve (the maintained view on an
					// incremental database) is the one a fresh derive gives.
					got, err := db.InstanceString()
					if err != nil {
						t.Fatal(err)
					}
					f, err := db.snap.Load().st.Derive(db.opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := engine.ToInstance(f, db.snap.Load().st.S, 0).String(); got != want {
						t.Fatalf("served instance diverges from a fresh derive:\n%s\nwant\n%s", got, want)
					}
					audit := c.audit
					if inc && c.incAudit != "" {
						audit = c.incAudit
					}
					if p.Audit != audit {
						t.Fatalf("audit = %q, want %q", p.Audit, audit)
					}
				})
			}
		}
	}
}

// The audit of a rule-bearing RIDI against the full audit it narrows: a
// module that declares nothing and runs under the database's semantics,
// whose rules no persistent rule sees, audits only what its rules add.
// Every module here, accepted or rejected, on scratch and incremental
// databases, must decide as the full audit of its work state — R ∪ R_M
// over E, under S ∪ S_M and the module's semantics — decides, with the
// same error text.
func TestRIDIAddedAuditMatchesFullAudit(t *testing.T) {
	snap := auditPreloaded(t)
	danglingEnrol, err := parser.ParseModule(`
rules
  enrolled(student: S, section: X) <- section(self: X).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	danglingEnrol.Rules[0].Head.Args[0].Term = ast.Const{Val: value.Ref(999)}

	cases := []struct {
		name   string
		src    string      // a RIDI module's body after its mode
		mod    *ast.Module // when src cannot spell the module
		accept bool
		audit  string // what an accepted module reports
	}{
		// registrar_http's transcript report: rules over the classes whose
		// heads no persistent rule or denial reads, and a goal.
		{name: "report shape", accept: true, audit: module.AuditDelta, src: `rules
  intake(name: N) <- student(self: S, name: N), mark(student: S, grade: G), G >= 18.
  enrolled(student: S, section: X) <- student(self: S, name: "bob"), section(self: X, code: "lp201").
goal
  ?- enrolled(student: S, section: X).`},
		{name: "dangling oid constant", mod: danglingEnrol},
		{name: "denial reads the head", src: `rules
  member("zed", taught(C)) <- offering(code: C).`},
		// A denial R_M brings is checked whatever it reads: no commit
		// checked it.
		{name: "own denial, violated", src: `rules
  <- intake(name: "ann").`},
		{name: "own denial, satisfied", accept: true, audit: module.AuditDelta, src: `rules
  <- intake(name: "zed").`},
		{name: "rule reads the head", accept: true, audit: "full: rule reads or heads offering", src: `rules
  offering(code: "cs300", capacity: 5).`},
		// Only the catalog fact R derives from the head violates a denial.
		{name: "rule reads the head, derived violation", src: `rules
  offering(code: "void", capacity: 0).`},
		{name: "class head", accept: true, audit: "full: class fact in delta", src: `rules
  student(self: S, name: "cho", year: 2) <- intake(name: "ann").`},
		{name: "noninflationary", accept: true, audit: "full: module semantics", src: `semantics noninflationary.
rules
  intake(name: N) <- student(self: S, name: N).`},
		{name: "type equation", accept: true, audit: "full: rule or schema change", src: `associations
  NOTE = (text: string);
rules
  note(text: "x").`},
	}
	for _, c := range cases {
		m := c.mod
		if m == nil {
			if m, err = parser.ParseModule("mode ridi.\n" + c.src + "\nend.\n"); err != nil {
				t.Fatal(err)
			}
		}
		for _, inc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/incremental=%v", c.name, inc), func(t *testing.T) {
				db, err := Load(bytes.NewReader(snap), WithIncremental(inc))
				if err != nil {
					t.Fatal(err)
				}
				want := ridiWorkAudit(db, m)
				if (want == nil) != c.accept {
					t.Fatalf("the full audit says %v; the case expects accept=%v", want, c.accept)
				}

				var p Profile
				_, err = db.Apply(m, RIDI, WithCallProfile(&p))
				if want != nil {
					if err == nil || err.Error() != want.Error() {
						t.Fatalf("got %v\nwant %v", err, want)
					}
					return
				}
				if err != nil {
					t.Fatalf("the full audit accepts the module, its audit rejects it: %v", err)
				}
				if p.Audit != c.audit {
					t.Fatalf("audit = %q, want %q", p.Audit, c.audit)
				}
			})
		}
	}
}

// ridiWorkAudit is the full audit of a RIDI module's work state on db's
// published state: R ∪ R_M over E, under S ∪ S_M and the module's
// semantics, or the error that builds no such schema.
func ridiWorkAudit(db *Database, m *ast.Module) error {
	st := db.snap.Load().st
	work := &module.State{E: st.E, R: append(slices.Clone(st.R), m.Rules...), S: st.S, Counter: st.Counter}
	if m.Schema != nil {
		var err error
		if work.S, err = st.S.Union(m.Schema); err != nil {
			return err
		}
		if err := work.S.Validate(); err != nil {
			return err
		}
	}
	opts := db.opts
	opts.NonInflationary = opts.NonInflationary || m.NonInflationary
	return work.Audit(opts)
}

// unauditedRIDV is the state a RIDV application of m, which declares
// nothing, would commit on st, built without the application's audit:
// E′ = R_M(E), with st's rules and schema.
func unauditedRIDV(t *testing.T, st *module.State, m *ast.Module, opts engine.Options) *module.State {
	t.Helper()
	prog, err := engine.Compile(st.S, m.Rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	counter := st.Counter
	e, err := prog.Run(st.E, &counter)
	if err != nil {
		t.Fatal(err)
	}
	return &module.State{E: e, R: st.R, S: st.S, Counter: counter, Lib: st.Lib}
}
