package logres

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"logres/internal/obs"
	"strings"
	"testing"
)

var updateIdentity = flag.Bool("update-identity", false, "rewrite testdata/identity/*.golden")

// identityRecord is what one golden case leaves behind: per operation,
// the canonical JSONL trace it emitted, its answer or error, and
// Explain() after it; then the final Save bytes.
type identityRecord struct {
	out   bytes.Buffer
	trace bytes.Buffer
	db    *Database
}

// openIdentity opens a database over schema under options, tracing into
// the record's canonical stream.
func openIdentity(t *testing.T, schema string, options ...Option) *identityRecord {
	t.Helper()
	rec := &identityRecord{}
	db, err := Open(schema, append(options, WithTracer(NewCanonicalJSONLTracer(&rec.trace)))...)
	if err != nil {
		t.Fatal(err)
	}
	rec.db = db
	return rec
}

// section appends one titled block and clears the trace.
func (rec *identityRecord) section(title, body string) {
	fmt.Fprintf(&rec.out, "=== %s\n%s", title, body)
	if body != "" && !strings.HasSuffix(body, "\n") {
		rec.out.WriteString("\n")
	}
}

// op records one operation: its trace, its result and Explain after it.
func (rec *identityRecord) op(t *testing.T, name string, answer *Answer, err error) {
	t.Helper()
	rec.section(name+": trace", rec.trace.String())
	rec.trace.Reset()
	switch {
	case err != nil:
		rec.section(name+": error", err.Error())
	case answer != nil:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v\n", answer.Vars)
		for _, row := range answer.Rows {
			fmt.Fprintf(&sb, "%v\n", row)
		}
		rec.section(name+": answer", sb.String())
	default:
		rec.section(name+": ok", "")
	}
	explain, err := rec.db.Explain()
	if err != nil {
		t.Fatalf("%s: Explain: %v", name, err)
	}
	rec.trace.Reset() // Explain's own run is recorded by its text
	rec.section(name+": explain", explain)
}

func (rec *identityRecord) exec(t *testing.T, name, src string) {
	t.Helper()
	res, err := rec.db.Exec(src)
	var answer *Answer
	if res != nil {
		answer = res.Answer
	}
	rec.op(t, name, answer, err)
}

func (rec *identityRecord) query(t *testing.T, name, goal string) {
	t.Helper()
	answer, err := rec.db.Query(goal)
	rec.op(t, name, answer, err)
}

// save appends the final Save bytes.
func (rec *identityRecord) save(t *testing.T) []byte {
	t.Helper()
	var sb strings.Builder
	if err := rec.db.Save(&sb2{&sb}); err != nil {
		t.Fatal(err)
	}
	rec.section("save", sb.String())
	return rec.out.Bytes()
}

type identityTracer func(TraceEvent)

func (f identityTracer) Event(ev TraceEvent) { f(ev) }

// identityCrossSchema and identityCrossRules derive the 10 000 pairs of
// a 100-edge chain in one round: a facts budget of 200 trips the first
// in-round guard poll.
const identityCrossSchema = `
associations
  EDGE = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
`

// identityBudgetAbort records one in-round budget abort: the error text
// and the guard.check event, which the canonical trace leaves out.
func identityBudgetAbort(t *testing.T, options ...Option) []byte {
	var checks strings.Builder
	guardChecks := identityTracer(func(ev TraceEvent) {
		if ev.Kind == obs.KindGuardCheck {
			fmt.Fprintf(&checks, "stratum %d round %d pred %s: %s\n", ev.Stratum, ev.Round, ev.Pred, ev.Detail)
		}
	})
	rec := openIdentity(t, identityCrossSchema, append(options, WithBudget(Budget{MaxFacts: 200}))...)
	rec.db.SetTracer(MultiTracer(NewCanonicalJSONLTracer(&rec.trace), guardChecks))
	var edges strings.Builder
	edges.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&edges, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	edges.WriteString("end.\n")
	rec.exec(t, "edges", edges.String())
	res, err := rec.db.Exec("mode radi.\nrules\n  same(a: X, b: Y) <- edge(src: X, dst: W), edge(src: Y, dst: Z).\nend.\n")
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("cross product: %v, %v; want a budget abort", res, err)
	}
	if checks.Len() == 0 {
		t.Fatal("no guard.check event")
	}
	rec.op(t, "cross", nil, err)
	rec.section("guard.check", checks.String())
	return rec.save(t)
}

// identityCases are the golden cases, by file name.
var identityCases = []struct {
	name string
	run  func(t *testing.T) []byte
}{
	{"closure-shape", func(t *testing.T) []byte {
		rec := openIdentity(t, closureShapeSchema)
		for i, m := range closureShapeModules(64) {
			rec.exec(t, fmt.Sprintf("module %d", i), m)
		}
		for _, g := range []string{
			"?- tc(src: 0, dst: X).",
			"?- sg(a: 5, b: X).",
			"?- unreach(a: 16, b: X).",
			"?- origin(self: S, id: 3).",
		} {
			rec.query(t, g, g)
		}
		return rec.save(t)
	}},
	{"registrar", func(t *testing.T) []byte {
		rec := &identityRecord{db: registrarPreload(t, registrarReportSchema, 1)}
		rec.db.SetTracer(NewCanonicalJSONLTracer(&rec.trace))
		rec.exec(t, "enrol", "mode ridv.\nrules\n"+registrarEnrol(7, 8)+"end.\n")
		rec.exec(t, "drop", "mode ridv.\nrules\n  not "+strings.TrimPrefix(registrarEnrol(7, 8), "  ")+"end.\n")
		rec.exec(t, "report", fmt.Sprintf(`mode ridi.
rules
  member(C, passed(N)) <- student(self: S, name: N), N = %q, mark(student: S, code: C, grade: G), G >= 18.
  transcript(name: N, passed: P) <- student(name: N), N = %q, P = passed(N).
goal
  ?- transcript(name: %q, passed: P).
end.
`, "s0007", "s0007", "s0007"))
		return rec.save(t)
	}},
	{"ivm-chain", func(t *testing.T) []byte {
		edges, _ := ivmChainEdges(false)
		rec := &identityRecord{db: ivmChainOpen(t, edges)}
		rec.db.SetTracer(NewCanonicalJSONLTracer(&rec.trace))
		rec.exec(t, "insert", ivmEdgeModule(false, [2]int{ivmChainWindow, ivmChainWindow + 1}))
		rec.exec(t, "delete", ivmEdgeModule(true, edges[len(edges)-1]))
		return rec.save(t)
	}},
	{"budget-row", func(t *testing.T) []byte { return identityBudgetAbort(t, WithVectorize(false)) }},
	{"budget-kernels", func(t *testing.T) []byte { return identityBudgetAbort(t) }},
}

// TestIdentityGoldens replays fixed operation sequences and compares
// what each leaves behind, byte for byte, with
// testdata/identity/<case>.golden: per operation its canonical JSONL
// trace, its answer or error and Explain() after it, then the final
// Save bytes. The cases are the closure shape with its four goals, the
// registrar preload with one enrolment, one drop and one report, the
// maintained chain with one insert and one delete, and one in-round
// budget abort on the row loop and one in the kernels' emit.
// -update-identity rewrites the files.
func TestIdentityGoldens(t *testing.T) {
	for _, c := range identityCases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			path := filepath.Join("testdata", "identity", c.name+".golden")
			if *updateIdentity {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
