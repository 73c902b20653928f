package engine

import (
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

// build compiles a schema (module syntax) and rules (bare rule syntax).
func build(t *testing.T, schemaSrc, rulesSrc string) *Program {
	t.Helper()
	p, err := tryBuild(schemaSrc, rulesSrc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func tryBuild(schemaSrc, rulesSrc string, opts Options) (*Program, error) {
	m, err := parser.ParseModule(schemaSrc)
	if err != nil {
		return nil, err
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	rules, err := parser.ParseProgram(rulesSrc)
	if err != nil {
		return nil, err
	}
	return Compile(m.Schema, rules, opts)
}

// run evaluates the program from an empty extensional database.
func run(t *testing.T, p *Program) *FactSet {
	t.Helper()
	counter := int64(0)
	f, err := p.Run(NewFactSet(), &counter)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// seedEDB materializes a set of ground facts (written as fact rules) into
// an extensional fact set. The paper keeps E separate from R: facts in R
// re-assert themselves at every step, so update programs with deletions
// must receive their base data through E (module application does this;
// tests use this helper).
func seedEDB(t *testing.T, schema *types.Schema, factsSrc string) *FactSet {
	t.Helper()
	rules, err := parser.ParseProgram(factsSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(schema, rules, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	f, err := p.Run(NewFactSet(), &counter)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// schemaOf parses a module source and returns its validated schema.
func schemaOf(t *testing.T, src string) *types.Schema {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	return m.Schema
}

// tuples renders an association's extension as sorted "a=1,b=2" strings.
func tuples(f *FactSet, pred string) []string {
	var out []string
	for _, fact := range f.Facts(pred) {
		var parts []string
		for _, fl := range fact.Tuple.Fields() {
			parts = append(parts, fl.Label+"="+fl.Value.String())
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

const parentSchema = `
domains NAME = string;
associations
  PARENT = (par: NAME, chil: NAME);
  ANC = (anc: NAME, des: NAME);
`

func TestTransitiveClosure(t *testing.T) {
	p := build(t, parentSchema, `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
parent(par: "c", chil: "d").
anc(anc: X, des: Y) <- parent(par: X, chil: Y).
anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
`)
	f := run(t, p)
	if got := f.Size("anc"); got != 6 {
		t.Fatalf("anc size = %d, want 6\n%v", got, tuples(f, "anc"))
	}
	want := Fact{Pred: "anc", Tuple: value.NewTuple(
		value.Field{Label: "anc", Value: value.Str("a")},
		value.Field{Label: "des", Value: value.Str("d")},
	)}
	if !f.Has(want) {
		t.Fatalf("missing a->d: %v", tuples(f, "anc"))
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	rules := `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
parent(par: "c", chil: "d").
parent(par: "b", chil: "e").
anc(anc: X, des: Y) <- parent(par: X, chil: Y).
anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
`
	pNaive, err := tryBuild(parentSchema, rules, Options{SemiNaive: false})
	if err != nil {
		t.Fatal(err)
	}
	pSemi, err := tryBuild(parentSchema, rules, Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	fN, fS := run(t, pNaive), run(t, pSemi)
	if !fN.Equal(fS) {
		t.Fatalf("semi-naive diverges:\nnaive: %v\nsemi: %v", tuples(fN, "anc"), tuples(fS, "anc"))
	}
}

func TestStratifiedNegation(t *testing.T) {
	p := build(t, `
domains N = integer;
associations
  EDGE = (src: N, dst: N);
  REACH = (n: N);
  UNREACH = (n: N);
  NODE = (n: N);
`, `
edge(src: 1, dst: 2).
edge(src: 2, dst: 3).
node(n: 1). node(n: 2). node(n: 3). node(n: 4).
reach(n: 1).
reach(n: Y) <- reach(n: X), edge(src: X, dst: Y).
unreach(n: X) <- node(n: X), not reach(n: X).
`)
	if !p.Stratified() {
		t.Fatal("program should be stratified")
	}
	f := run(t, p)
	if got := tuples(f, "unreach"); len(got) != 1 || got[0] != "n=4" {
		t.Fatalf("unreach = %v", got)
	}
}

func TestNegationActiveDomain(t *testing.T) {
	// X occurs only in the negated literal: it ranges over the active
	// domain of its declared type.
	p := build(t, `
domains N = integer;
associations
  P = (n: N);
  Q = (n: N);
  R = (n: N);
`, `
p(n: 1). p(n: 2). p(n: 3).
q(n: 2).
r(n: X) <- not q(n: X), p(n: X).
`)
	f := run(t, p)
	got := tuples(f, "r")
	if len(got) != 2 || got[0] != "n=1" || got[1] != "n=3" {
		t.Fatalf("r = %v", got)
	}
}

func TestNegationPureActiveDomain(t *testing.T) {
	// The negated literal is the only binder: X must still enumerate the
	// active domain of N, which includes values from p even though the
	// check is against q.
	p := build(t, `
domains N = integer;
associations
  P = (n: N);
  Q = (n: N);
  R = (n: N);
`, `
p(n: 1). p(n: 2).
q(n: 2).
r(n: X) <- not q(n: X).
`)
	f := run(t, p)
	got := tuples(f, "r")
	if len(got) != 1 || got[0] != "n=1" {
		t.Fatalf("r = %v", got)
	}
}

// Example 4.2 of the paper: update tuples with an even first field by
// adding 1 to the second field, deleting the old tuples.
func TestExample42UpdateWithDeletion(t *testing.T) {
	schemaSrc := `
associations
  P = (d1: integer, d2: integer);
  MODP = (d1: integer, d2: integer);
  EVEN = (n: integer);
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `
p(d1: 1, d2: 1). p(d1: 2, d2: 2). p(d1: 3, d2: 3). p(d1: 4, d2: 4).
even(n: 2). even(n: 4).
`)
	p := build(t, schemaSrc, `
p(d1: X, d2: Z) <- p(d1: X, d2: Y), even(n: X), Z = Y + 1, not modp(d1: X, d2: Y).
modp(d1: X, d2: Z) <- p(d1: X, d2: Y), even(n: X), Z = Y + 1, not modp(d1: X, d2: Y).
not p(Y) <- p(Y), Y = (d1: X, d2: W), even(n: X), not modp(Y).
`)
	// The deletion head's tuple variable fixes the whole key.
	if _, minus := assertLookupMatchesWalk(t, p, edb); minus.Size("p") != 2 {
		t.Fatalf("the first step deletes %s, want the two even tuples", dump(minus))
	}
	counter := int64(0)
	f, err := p.Run(edb, &counter)
	if err != nil {
		t.Fatal(err)
	}
	got := tuples(f, "p")
	want := []string{"d1=1,d2=1", "d1=2,d2=3", "d1=3,d2=3", "d1=4,d2=5"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("p = %v, want %v", got, want)
	}
}

// Example 3.3: the powerset of R through Append and Union (result-last
// convention of Definition 6).
func TestExample33Powerset(t *testing.T) {
	p := build(t, `
domains D = integer;
associations
  R = (d: D);
  POWER = (set: {D});
`, `
r(d: 1). r(d: 2). r(d: 3).
power(set: X) <- X = {}.
power(set: X) <- r(d: Y), append({}, Y, X).
power(set: X) <- power(set: Y), power(set: Z), union(Y, Z, X).
`)
	f := run(t, p)
	if got := f.Size("power"); got != 8 {
		t.Fatalf("powerset size = %d, want 8\n%v", got, tuples(f, "power"))
	}
}

// Example 3.2: recursive descendants via a data function, then nesting the
// result into an association.
func TestExample32Descendants(t *testing.T) {
	p := build(t, `
domains NAME = string;
associations
  PARENT = (par: NAME, chil: NAME);
  ANCESTOR = (anc: NAME, des: {NAME});
functions
  DESC: NAME -> {NAME};
`, `
parent(par: "x", chil: "y").
parent(par: "y", chil: "z").
member(X, desc(Y)) <- parent(par: Y, chil: X).
member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
`)
	f := run(t, p)
	got := tuples(f, "ancestor")
	want := []string{`anc="x",des={"y", "z"}`, `anc="y",des={"z"}`}
	if strings.Join(got, " | ") != strings.Join(want, " | ") {
		t.Fatalf("ancestor = %v", got)
	}
}

// Example 2.2: nullary function naming the extension of a type.
func TestNullaryFunction(t *testing.T) {
	p := build(t, `
domains NAME = string;
associations
  PERSONREC = (name: NAME, age: integer);
  KIDS = (name: NAME);
functions
  JUNIOR: -> {NAME};
`, `
personrec(name: "ann", age: 12).
personrec(name: "bob", age: 40).
member(X, junior()) <- personrec(name: X, age: A), A <= 18.
kids(name: X) <- member(X, T), T = junior().
`)
	f := run(t, p)
	got := tuples(f, "kids")
	if len(got) != 1 || got[0] != `name="ann"` {
		t.Fatalf("kids = %v", got)
	}
}

func TestBuiltins(t *testing.T) {
	p := build(t, `
domains D = integer;
associations
  IN = (s: {D});
  OUT = (tag: string, v: integer);
  SEQIN = (q: <D>);
  SEQOUT = (v: integer);
`, `
in(s: {1, 2, 3, 4}).
out(tag: "count", v: N) <- in(s: S), count(S, N).
out(tag: "sum", v: N) <- in(s: S), sum(S, N).
out(tag: "min", v: N) <- in(s: S), min(S, N).
out(tag: "max", v: N) <- in(s: S), max(S, N).
seqin(q: <7, 8, 9>).
seqout(v: X) <- seqin(q: Q), nth(Q, 2, X).
seqout(v: N) <- seqin(q: Q), length(Q, N).
`)
	f := run(t, p)
	got := strings.Join(tuples(f, "out"), " ")
	for _, want := range []string{`tag="count",v=4`, `tag="sum",v=10`, `tag="min",v=1`, `tag="max",v=4`} {
		if !strings.Contains(got, want) {
			t.Errorf("out missing %q: %s", want, got)
		}
	}
	sq := strings.Join(tuples(f, "seqout"), " ")
	if !strings.Contains(sq, "v=8") || !strings.Contains(sq, "v=3") {
		t.Errorf("seqout = %s", sq)
	}
}

func TestSetOpsBuiltins(t *testing.T) {
	p := build(t, `
domains D = integer;
associations
  A = (s: {D});
  B = (s: {D});
  RES = (tag: string, s: {D});
`, `
a(s: {1, 2, 3}).
b(s: {2, 3, 4}).
res(tag: "union", s: Z) <- a(s: X), b(s: Y), union(X, Y, Z).
res(tag: "inter", s: Z) <- a(s: X), b(s: Y), intersection(X, Y, Z).
res(tag: "diff", s: Z) <- a(s: X), b(s: Y), difference(X, Y, Z).
`)
	f := run(t, p)
	got := strings.Join(tuples(f, "res"), " | ")
	for _, want := range []string{
		`tag="union",s={1, 2, 3, 4}`,
		`tag="inter",s={2, 3}`,
		`tag="diff",s={1}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("res missing %q: %s", want, got)
		}
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	p := build(t, `
associations
  N = (v: integer);
  OUT = (v: integer);
`, `
n(v: 10).
out(v: X) <- n(v: Y), X = Y * 2 + 1.
out(v: X) <- n(v: Y), X = Y mod 3.
out(v: X) <- n(v: Y), X = Y / 2, Y > 5, Y != 11, Y >= 10, Y <= 10, Y < 11.
`)
	f := run(t, p)
	got := strings.Join(tuples(f, "out"), " ")
	for _, want := range []string{"v=21", "v=1", "v=5"} {
		if !strings.Contains(got, want) {
			t.Errorf("out missing %q: %s", want, got)
		}
	}
}

func TestGoalQuery(t *testing.T) {
	p := build(t, parentSchema, `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
anc(anc: X, des: Y) <- parent(par: X, chil: Y).
anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
`)
	f := run(t, p)
	goal, err := parser.ParseGoal(`?- anc(anc: "a", des: X).`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Query(f, goal)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Vars) != 1 || ans.Vars[0] != "X" {
		t.Fatalf("vars = %v", ans.Vars)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows = %v", ans.Rows)
	}
	if ans.Rows[0][0] != value.Str("b") || ans.Rows[1][0] != value.Str("c") {
		t.Fatalf("rows = %v", ans.Rows)
	}
}

func TestDenials(t *testing.T) {
	p := build(t, `
domains NAME = string;
associations
  MARRIED = (name: NAME);
  DIVORCED = (name: NAME);
`, `
married(name: "x").
divorced(name: "x").
<- married(name: X), divorced(name: X).
`)
	f := run(t, p)
	if err := p.CheckDenials(f); err == nil || !strings.Contains(err.Error(), "integrity violation") {
		t.Fatalf("denial not detected: %v", err)
	}
}

func TestUnknownPredicateRejected(t *testing.T) {
	if _, err := tryBuild(parentSchema, `anc(anc: X, des: Y) <- nosuch(par: X, chil: Y).`, DefaultOptions()); err == nil {
		t.Fatal("unknown predicate accepted")
	}
}

func TestUnknownLabelRejected(t *testing.T) {
	if _, err := tryBuild(parentSchema, `anc(anc: X, des: Y) <- parent(nolabel: X, chil: Y).`, DefaultOptions()); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestUnsafeHeadRejected(t *testing.T) {
	if _, err := tryBuild(parentSchema, `anc(anc: X, des: Y) <- parent(par: X).`, DefaultOptions()); err == nil {
		t.Fatal("unbound head variable accepted")
	}
}

func TestUnsafeBodyRejected(t *testing.T) {
	// Z + 1 can never be evaluated.
	if _, err := tryBuild(parentSchema, `anc(anc: X, des: Y) <- parent(par: X, chil: Y), W = Z + 1.`, DefaultOptions()); err == nil {
		t.Fatal("unorderable body accepted")
	}
}

func TestTypeMismatchRejected(t *testing.T) {
	// chil is a NAME (string); 3 is an integer.
	if _, err := tryBuild(parentSchema, `anc(anc: X, des: X) <- parent(par: X, chil: 3).`, DefaultOptions()); err == nil {
		t.Fatal("ill-typed constant accepted")
	}
}

func TestIncompatibleVarTypesRejected(t *testing.T) {
	src := `
domains NAME = string;
associations
  P = (a: NAME, b: integer);
  Q = (x: NAME);
`
	if _, err := tryBuild(src, `q(x: X) <- p(a: X, b: X).`, DefaultOptions()); err == nil {
		t.Fatal("incompatible variable types accepted")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	// A rule that grows forever: n(v: X+1) <- n(v: X).
	p, err := tryBuild(`associations N = (v: integer);`,
		`n(v: 0). n(v: Y) <- n(v: X), Y = X + 1.`,
		Options{SemiNaive: false, Budget: Budget{MaxRounds: 50}})
	if err != nil {
		t.Fatal(err)
	}
	counter := int64(0)
	if _, err := p.Run(NewFactSet(), &counter); err == nil || !strings.Contains(err.Error(), "fixpoint") {
		t.Fatalf("non-terminating program not caught: %v", err)
	}
}

func TestStrataStructure(t *testing.T) {
	p := build(t, `
associations
  E = (a: integer, b: integer);
  TC = (a: integer, b: integer);
  NOTC = (a: integer, b: integer);
`, `
tc(a: X, b: Y) <- e(a: X, b: Y).
tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
notc(a: X, b: Y) <- e(a: X, b: Y), not tc(a: X, b: Y).
`)
	if !p.Stratified() {
		t.Fatal("should be stratified")
	}
	if len(p.strata) < 2 {
		t.Fatalf("strata = %d, want >= 2", len(p.strata))
	}
}

func TestUnstratifiedFallsBack(t *testing.T) {
	p := build(t, `
associations
  P = (n: integer);
  Q = (n: integer);
`, `
p(n: 1).
q(n: X) <- p(n: X), not q(n: X).
`)
	if p.Stratified() {
		t.Fatal("negative cycle should be unstratified")
	}
	// Whole-program inflationary still assigns a meaning.
	f := run(t, p)
	if f.Size("q") != 1 {
		t.Fatalf("q = %v", tuples(f, "q"))
	}
}

func TestFunctionDependencyIsStrict(t *testing.T) {
	// member/f defined from p; g reads f's extension: f must be complete
	// before g evaluates, i.e. they are in different strata.
	p := build(t, `
associations
  P = (n: integer);
  G = (s: {integer});
functions
  F: integer -> {integer};
`, `
p(n: 1). p(n: 2).
member(X, f(Y)) <- p(n: Y), p(n: X).
g(s: S) <- p(n: Y), S = f(Y).
`)
	if !p.Stratified() {
		t.Fatal("should be stratified")
	}
	if len(p.strata) < 2 {
		t.Fatalf("function read should force a new stratum; strata = %d", len(p.strata))
	}
	f := run(t, p)
	got := tuples(f, "g")
	if len(got) != 1 || got[0] != "s={1, 2}" {
		t.Fatalf("g = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
anc(anc: X, des: Y) <- parent(par: X, chil: Y).
anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
`
	p1 := build(t, parentSchema, src)
	p2 := build(t, parentSchema, src)
	if !run(t, p1).Equal(run(t, p2)) {
		t.Fatal("two runs diverge")
	}
}

func TestGeneratedRuleCount(t *testing.T) {
	m, err := parser.ParseModule(`
classes
  PERSON = (name: string);
  STUDENT = (PERSON, school: string);
  STUDENT isa PERSON;
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m.Schema, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRules() != 1 {
		t.Fatalf("generated rules = %d, want 1 isa-propagation rule", p.NumRules())
	}
}

func TestWildcardInBody(t *testing.T) {
	p := build(t, parentSchema, `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
anc(anc: X, des: X) <- parent(par: X, chil: _).
`)
	f := run(t, p)
	if f.Size("anc") != 2 {
		t.Fatalf("anc = %v", tuples(f, "anc"))
	}
}

func TestFactSetOps(t *testing.T) {
	mk := func(pred string, n int64) Fact {
		return Fact{Pred: pred, Tuple: value.NewTuple(value.Field{Label: "v", Value: value.Int(n)})}
	}
	a := NewFactSet()
	a.Add(mk("p", 1))
	a.Add(mk("p", 2))
	b := NewFactSet()
	b.Add(mk("p", 2))
	b.Add(mk("p", 3))
	if u := a.Compose(b); u.TotalSize() != 3 {
		t.Fatalf("compose size = %d", u.TotalSize())
	}
	if m := a.Minus(b); m.TotalSize() != 1 || !m.Has(mk("p", 1)) {
		t.Fatalf("minus = %v", m.Preds())
	}
	if i := a.Intersect(b); i.TotalSize() != 1 || !i.Has(mk("p", 2)) {
		t.Fatal("intersect wrong")
	}
	if !a.Clone().Equal(a) {
		t.Fatal("clone not equal")
	}
}

func TestComposeClassRightBias(t *testing.T) {
	mkc := func(oid value.OID, v int64) Fact {
		return Fact{Pred: "c", IsClass: true, OID: oid, Tuple: value.NewTuple(value.Field{Label: "v", Value: value.Int(v)})}
	}
	left := NewFactSet()
	left.Add(mkc(1, 10))
	left.Add(mkc(2, 20))
	right := NewFactSet()
	right.Add(mkc(1, 99))
	out := left.Compose(right)
	if out.Size("c") != 2 {
		t.Fatalf("size = %d", out.Size("c"))
	}
	f, ok := out.HasOID("c", 1)
	if !ok {
		t.Fatal("oid 1 missing")
	}
	if got, _ := f.Tuple.Get("v"); got != value.Int(99) {
		t.Fatalf("⊕ right bias violated: %v", f.Tuple)
	}
}

func TestDeletionHeadDeletesFunctionFact(t *testing.T) {
	p := build(t, `
associations
  P = (n: integer);
  BAD = (n: integer);
  DROPPED = (n: integer);
functions
  F: integer -> {integer};
`, `
p(n: 1). p(n: 2).
bad(n: 2).
member(X, f(X)) <- p(n: X), not dropped(n: X).
dropped(n: X) <- bad(n: X).
not member(X, f(X)) <- dropped(n: X).
`)
	f := run(t, p)
	if f.Size("f") != 1 {
		t.Fatalf("function facts = %v", tuples(f, "f"))
	}
}

func TestVarSet(t *testing.T) {
	rules, err := parser.ParseProgram(`p(a: X, b: Y) <- q(X, Z), r(s: (t: W)).`)
	if err != nil {
		t.Fatal(err)
	}
	var lits []ast.Literal
	lits = append(lits, *rules[0].Head)
	lits = append(lits, rules[0].Body...)
	got := ast.VarSet(lits)
	if strings.Join(got, ",") != "X,Y,Z,W" {
		t.Fatalf("VarSet = %v", got)
	}
}

func TestCompileErrorsMentionRule(t *testing.T) {
	_, err := tryBuild(parentSchema, `anc(anc: X, des: Y) <- nosuch(X, Y).`, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "in rule") {
		t.Fatalf("error lacks rule context: %v", err)
	}
}

var _ = types.Canon // keep import for helper extensions
