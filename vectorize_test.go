package logres

import (
	"fmt"
	"strings"
	"testing"
)

// Top-level differential property: the persisted database — Save's
// exact byte stream — and the rendered instance must be identical
// whether evaluation ran on the row oracle or under the defaults
// (engineLegs), from scratch or maintained incrementally. This is the
// end-to-end counterpart of the engine-level matrix test
// (internal/engine/vector_test.go): it covers parsing, module
// application, storage, and serialization on top of evaluation.

// vecMatrixCase is one database: a schema and the modules that build it.
type vecMatrixCase struct {
	name    string
	schema  string
	modules []string
	derived string // a predicate the run must have derived
}

func vecMatrixCases() []vecMatrixCase {
	var edges strings.Builder
	edges.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&edges, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	// A back edge so the negation in SAME has both outcomes.
	edges.WriteString("  edge(src: 24, dst: 0).\nend.\n")

	// A chain with shortcuts, a few seeds, and two REACH facts stored
	// extensionally, so the columnar stratum grows a predicate that
	// already has facts; node 99 makes each sort after what the stratum
	// derives into its bucket, so oids numbered in the order derived
	// facts were appended to a prebuilt bucket would show. The grown edge
	// set (third module)
	// re-derives the instance over an extension the previous commit wrote.
	var links strings.Builder
	links.WriteString("mode ridv.\nrules\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&links, "  link(s: %d, d: %d).\n", i, i+1)
		if i%4 == 0 {
			fmt.Fprintf(&links, "  link(s: %d, d: %d).\n", i, i+3)
		}
		if i%5 == 0 {
			fmt.Fprintf(&links, "  seed(n: %d).\n", i)
		}
	}
	links.WriteString("  reach(s: 5, d: 99).\n  reach(s: 99, d: 15).\nend.\n")

	// Row strata that invent oids over a columnar-derived predicate:
	// HOP and BACK reach REACH through a bound component (one the
	// recursive rule itself binds, one it does not), WALK through a full
	// scan. The closure is linear or non-linear; the oids must not
	// depend on the order REACH's buckets grew in.
	inventionOverColumnar := func(name, recursive string) vecMatrixCase {
		return vecMatrixCase{
			name: name,
			schema: `
classes
  HOP = (from: integer, to: integer);
  BACK = (to: integer, from: integer);
  WALK = (s: integer, d: integer);
associations
  LINK = (s: integer, d: integer);
  REACH = (s: integer, d: integer);
  SEED = (n: integer);
`,
			modules: []string{links.String(), `
mode radi.
rules
  reach(s: X, d: Y) <- link(s: X, d: Y).
  ` + recursive + `
  hop(self: H, from: X, to: Y) <- seed(n: X), reach(s: X, d: Y).
  back(self: B, to: Y, from: X) <- seed(n: Y), reach(s: X, d: Y).
  walk(self: W, s: X, d: Y) <- reach(s: X, d: Y).
end.
`, "mode ridv.\nrules\n  link(s: 16, d: 2).\n  seed(n: 16).\nend.\n"},
			derived: "back",
		}
	}

	return []vecMatrixCase{
		{
			name: "closure-negation",
			schema: `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
`,
			modules: []string{edges.String(), `
mode ridv.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  same(a: X, b: Y) <- edge(src: X, dst: Y), not tc(src: Y, dst: X).
end.
`},
			derived: "tc",
		},
		{
			name:    "benchmark-shape",
			schema:  closureShapeSchema,
			modules: closureShapeModules(32),
			derived: "origin",
		},
		inventionOverColumnar("invention-over-columnar",
			"reach(s: X, d: Z) <- link(s: X, d: Y), reach(s: Y, d: Z)."),
		inventionOverColumnar("invention-over-columnar-nonlinear",
			"reach(s: X, d: Z) <- reach(s: X, d: Y), reach(s: Y, d: Z)."),
		conflictCase(),
	}
}

// The gated benchmark's closure_batch shape: a chain with forward
// edges, a par tree, persistent rules (RADI) for linear closure,
// non-linear same-generation, a stratified negation and a class-headed
// stratum that invents oids — so the instance holds objects numbered by
// a row stratum that reads what two columnar strata derived.
const closureShapeSchema = `
classes
  VERTEX = (id: integer);
  ORIGIN = (VERTEX, rank: integer);
  ORIGIN isa VERTEX;
associations
  NODE = (n: integer);
  ROOT = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  PAR = (child: integer, parent: integer);
  SG = (a: integer, b: integer);
  UNREACH = (a: integer, b: integer);
`

// closureShapeModules builds the closure_batch shape over a chain of n
// nodes: the data (RIDV), then the rules (RADI).
func closureShapeModules(n int) []string {
	var graph strings.Builder
	graph.WriteString("mode ridv.\nrules\n")
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&graph, "  node(n: %d).\n", i)
		if i > 0 {
			fmt.Fprintf(&graph, "  par(child: %d, parent: %d).\n", i, (i-1)/2)
			fmt.Fprintf(&graph, "  edge(src: %d, dst: %d).\n", i-1, i)
		}
		if i%16 == 0 {
			fmt.Fprintf(&graph, "  root(n: %d).\n", i)
		}
		if i%5 == 0 && i+3 <= n {
			fmt.Fprintf(&graph, "  edge(src: %d, dst: %d).\n", i, i+3)
		}
	}
	graph.WriteString("end.\n")
	return []string{graph.String(), `
mode radi.
rules
  tc(src: X, dst: Y) <- edge(src: X, dst: Y).
  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
  sg(a: X, b: X) <- node(n: X).
  sg(a: X, b: Y) <- par(child: X, parent: XP), sg(a: XP, b: YP), par(child: Y, parent: YP).
  unreach(a: X, b: Y) <- root(n: X), node(n: Y), not tc(src: X, dst: Y).
  origin(self: S, id: N, rank: 0) <- node(n: N), not unreach(a: 0, b: N).
end.
`}
}

// closureShapeNoOriginModules is closureShapeModules(n) without the rule
// that invents ORIGIN objects.
func closureShapeNoOriginModules(n int) []string {
	mods := closureShapeModules(n)
	mods[1] = strings.Replace(mods[1], "  origin(self: S, id: N, rank: 0) <- node(n: N), not unreach(a: 0, b: N).\n", "", 1)
	return mods
}

// vecMatrixRun builds the case's database under the options and returns
// its Save bytes and rendered instance.
func vecMatrixRun(t *testing.T, c vecMatrixCase, opts []Option) (save, instance string) {
	t.Helper()
	db, err := Open(c.schema, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.modules {
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := db.Save(&sb2{&sb}); err != nil {
		t.Fatal(err)
	}
	instance, err = db.InstanceString()
	if err != nil {
		t.Fatal(err)
	}
	return sb.String(), instance
}

func TestVectorizedSaveBytesMatrix(t *testing.T) {
	for _, c := range vecMatrixCases() {
		wantSave, wantInstance := vecMatrixRun(t, c, rowOracle())
		if !strings.Contains(wantInstance, c.derived) {
			t.Fatalf("%s: the oracle run derived no %s", c.name, c.derived)
		}
		if strings.Contains(c.schema, "classes") {
			var save, instance string
			withIsaFullPass(func() { save, instance = vecMatrixRun(t, c, rowOracle()) })
			if save != wantSave || instance != wantInstance {
				t.Fatalf("%s: the row oracle diverges from its run with full isa passes", c.name)
			}
		}
		for _, leg := range engineLegs() {
			for _, incremental := range []bool{false, true} {
				save, instance := vecMatrixRun(t, c, append(leg.opts, WithIncremental(incremental)))
				if save != wantSave {
					t.Fatalf("%s, %s, incremental=%v: Save bytes diverge from the row oracle", c.name, leg.name, incremental)
				}
				if instance != wantInstance {
					t.Fatalf("%s, %s, incremental=%v: InstanceString diverges from the row oracle", c.name, leg.name, incremental)
				}
			}
		}
	}
}

// A call profile says which strata ran on the columnar kernels and, for
// the ones that did not, which rule and construct kept them on the row
// engine — under the defaults that is the only trace of the choice.
func TestProfileNamesRowStrata(t *testing.T) {
	c := vecMatrixCases()[1]
	db, err := Open(c.schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.modules {
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
	var p Profile
	if _, err := db.Query("?- origin(self: S, id: 3).", WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range p.Strata {
		if st.Vectorized != (st.Reason == "") {
			t.Fatalf("stratum %d: vectorized=%v with reason %q", st.Stratum, st.Vectorized, st.Reason)
		}
		got = append(got, st.Reason)
	}
	want := []string{"", "", "rule #5: oid invention", "rule #6: class head"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stratum reasons = %q, want %q", got, want)
	}
}

// TestBodilessStratumRunsOnRows: a stratum whose rules have no body
// derives exactly its facts, so it runs on the row loop rather than
// encoding its heads' extensions for the kernels, and says why, in the
// call profile of a one-fact insert and in Explain.
func TestBodilessStratumRunsOnRows(t *testing.T) {
	db, err := Open(ivmChainSchema)
	if err != nil {
		t.Fatal(err)
	}
	var p Profile
	if _, err := db.Exec(ivmEdgeModule(false, [2]int{1, 2}), WithCallProfile(&p)); err != nil {
		t.Fatal(err)
	}
	if len(p.Strata) != 1 || p.Strata[0].Vectorized || p.Strata[0].Reason != "bodiless rules" {
		t.Fatalf("the insert's strata %+v, want one row stratum for bodiless rules", p.Strata)
	}
	if _, err := db.Exec("mode radi.\nrules\n  edge(src: 2, dst: 3).\n  tc(src: X, dst: Y) <- edge(src: X, dst: Y).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	out, err := db.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stratum 0 (semi-naive, row (bodiless rules))", "stratum 1 (semi-naive (vectorized))"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain lacks %q:\n%s", want, out)
		}
	}
	if n, err := db.Count("tc"); err != nil || n != 2 {
		t.Fatalf("Count(tc) = %d, %v; want 2", n, err)
	}
}
