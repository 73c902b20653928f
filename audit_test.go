package logres

import (
	"bytes"
	"fmt"
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
					ref, err := module.ApplySnapshotDeferred(db.snap.Load().st, m, RIDV, db.opts)
					if err != nil {
						t.Fatal(err)
					}
					_, _, want := ref.Res.State.Instance(db.opts)
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
