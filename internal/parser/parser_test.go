package parser

import (
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/types"
	"logres/internal/value"
)

func TestLexBasics(t *testing.T) {
	toks, err := lex(`foo Bar 12 3.5 "hi\n" <- ?- -> != <= >= { } [ ] < > . , ; : = + - * / _`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
	kinds := []tokKind{tokIdent, tokIdent, tokInt, tokReal, tokString}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d kind = %v, want %v", i, toks[i].kind, k)
		}
	}
	if toks[4].text != "hi\n" {
		t.Fatalf("string token = %q", toks[4].text)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("a % line comment\nb // another\nc /* block\n */ d")
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tok := range toks {
		if tok.kind == tokIdent {
			idents = append(idents, tok.text)
		}
	}
	if strings.Join(idents, "") != "abcd" {
		t.Fatalf("idents = %v", idents)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `"bad \q escape"`, "\"newline\nin string\"", "@"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded", src)
		}
	}
}

func TestLexNumberDotRule(t *testing.T) {
	toks, err := lex("p(1).")
	if err != nil {
		t.Fatal(err)
	}
	// expect ident ( int ) . EOF
	if toks[2].kind != tokInt || toks[2].text != "1" {
		t.Fatalf("got %v", toks)
	}
	if toks[4].text != "." {
		t.Fatalf("rule dot lost: %v", toks)
	}
}

func TestParseFootballModule(t *testing.T) {
	// Example 2.1 of the paper, in concrete syntax.
	src := `
module football.
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
end.
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "football" {
		t.Fatalf("name = %q", m.Name)
	}
	s := m.Schema
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Lookup("player")
	tup := d.RHS.(types.Tuple)
	if tup.Fields[0].Label != "name" {
		t.Fatalf("default label = %q", tup.Fields[0].Label)
	}
	if _, ok := tup.Fields[1].Type.(types.Set); !ok {
		t.Fatal("roles not a set")
	}
	team, _ := s.Lookup("team")
	tt := team.RHS.(types.Tuple)
	if _, ok := tt.Fields[1].Type.(types.Sequence); !ok {
		t.Fatal("base_players not a sequence")
	}
	game, _ := s.Lookup("game")
	gt := game.RHS.(types.Tuple)
	if gt.Fields[2].Label != "date" || gt.Fields[3].Label != "score" {
		t.Fatalf("default labels = %v", gt)
	}
}

func TestParseIsaDeclarations(t *testing.T) {
	src := `
classes
  PERSON = (name: string);
  STUDENT = (PERSON, school: string);
  STUDENT isa PERSON;
  EMPL = (emp: PERSON, manager: PERSON);
  EMPL emp isa PERSON;
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	edges := m.Schema.IsaEdges()
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0] != (types.IsaEdge{Sub: "student", Label: "", Super: "person"}) {
		t.Fatalf("edge 0 = %v", edges[0])
	}
	if edges[1] != (types.IsaEdge{Sub: "empl", Label: "emp", Super: "person"}) {
		t.Fatalf("edge 1 = %v", edges[1])
	}
	if err := m.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseFunctions(t *testing.T) {
	src := `
functions
  DESC: PERSON -> {PERSON};
  CHILDREN: PERSON -> {(person: PERSON, bdate: string)};
  JUNIOR: -> {PERSON};
`
	m, err := ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := m.Schema.Lookup("desc")
	if !ok || d.Kind != types.DeclFunction {
		t.Fatal("desc not declared as function")
	}
	if d.Arg == nil || d.Result == nil {
		t.Fatal("desc signature incomplete")
	}
	j, _ := m.Schema.Lookup("junior")
	if j.Arg != nil {
		t.Fatal("junior should be nullary")
	}
	ch, _ := m.Schema.Lookup("children")
	if _, ok := ch.Result.(types.Tuple); !ok {
		t.Fatalf("children result = %v", ch.Result)
	}
}

func TestFunctionResultMustBeSet(t *testing.T) {
	if _, err := ParseModule("functions F: PERSON -> PERSON;"); err == nil {
		t.Fatal("non-set function result accepted")
	}
}

func TestParseRules(t *testing.T) {
	rules, err := ParseProgram(`
member(X, desc(Y)) <- parent(par: Y, chil: X).
member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
ancestor(anc: X, des: Y) <- parent(par: X), Y = desc(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("got %d rules", len(rules))
	}
	r := rules[0]
	if r.Head.Pred != "member" || len(r.Head.Args) != 2 {
		t.Fatalf("head = %v", r.Head)
	}
	if _, ok := r.Head.Args[1].Term.(ast.FuncApp); !ok {
		t.Fatalf("desc(Y) not a function application: %T", r.Head.Args[1].Term)
	}
	if rules[1].Body[2].Pred != "=" {
		t.Fatalf("equality literal = %v", rules[1].Body[2])
	}
}

func TestParseSelfAndTupleVariables(t *testing.T) {
	rules, err := ParseProgram(`
pair(p_name: X, s_name: X) <- professor(self: X1, name: X), student(self: Y1, name: X), advises(Xp, Y1).
school_info(S) <- school(dean(self: X)), professor(self: X, name: S).
`)
	if err != nil {
		t.Fatal(err)
	}
	b0 := rules[0].Body[0]
	if b0.Args[0].Label != ast.SelfLabel {
		t.Fatalf("self label = %q", b0.Args[0].Label)
	}
	// Nested-reference sugar: dean(self: X) becomes a labelled tuple term.
	b1 := rules[1].Body[0]
	if b1.Args[0].Label != "dean" {
		t.Fatalf("nested reference label = %q", b1.Args[0].Label)
	}
	if _, ok := b1.Args[0].Term.(ast.TupleTerm); !ok {
		t.Fatalf("nested reference term = %T", b1.Args[0].Term)
	}
}

func TestParseNegationAndDenials(t *testing.T) {
	rules, err := ParseProgram(`
not p(d1: X) <- p(d1: X), even(X).
<- married(X), divorced(X).
q(X) <- r(X), not s(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if !rules[0].Head.Negated {
		t.Fatal("deletion head not negated")
	}
	if !rules[1].IsDenial() {
		t.Fatal("denial not recognized")
	}
	if !rules[2].Body[1].Negated {
		t.Fatal("body negation lost")
	}
}

func TestParseFactsAndConstants(t *testing.T) {
	rules, err := ParseProgram(`
italian(name: "Sara").
italian(name: luca).
p(x: 3, y: -4, z: 2.5, b: true, n: null).
`)
	if err != nil {
		t.Fatal(err)
	}
	if !rules[0].IsFact() {
		t.Fatal("fact not recognized")
	}
	if c := rules[1].Head.Args[0].Term.(ast.Const); c.Val != value.Str("luca") {
		t.Fatalf("atom constant = %v", c.Val)
	}
	args := rules[2].Head.Args
	if args[1].Term.(ast.Const).Val != value.Int(-4) {
		t.Fatalf("negative int = %v", args[1].Term)
	}
	if args[2].Term.(ast.Const).Val != value.Real(2.5) {
		t.Fatalf("real = %v", args[2].Term)
	}
	if args[3].Term.(ast.Const).Val != value.Bool(true) {
		t.Fatalf("bool = %v", args[3].Term)
	}
	if args[4].Term.(ast.Const).Val.Kind() != value.KindNull {
		t.Fatalf("null = %v", args[4].Term)
	}
}

func TestParseCollectionLiteralsAndArith(t *testing.T) {
	rules, err := ParseProgram(`
power(set: X) <- X = {}.
p(X) <- q(Y), X = Y + 1 * 2.
r(X) <- X = <1, 2, 3>, s([1, 1], {2}).
m(X) <- n(Y), X = Y mod 3.
`)
	if err != nil {
		t.Fatal(err)
	}
	eq := rules[0].Body[0]
	if st, ok := eq.Args[1].Term.(ast.SetTerm); !ok || len(st.Elems) != 0 {
		t.Fatalf("empty set literal = %v", eq.Args[1].Term)
	}
	// Precedence: Y + (1*2).
	expr := rules[1].Body[1].Args[1].Term.(ast.BinExpr)
	if expr.Op != "+" {
		t.Fatalf("top op = %q", expr.Op)
	}
	if inner, ok := expr.R.(ast.BinExpr); !ok || inner.Op != "*" {
		t.Fatalf("precedence wrong: %v", expr)
	}
	if sq, ok := rules[2].Body[0].Args[1].Term.(ast.SeqTerm); !ok || len(sq.Elems) != 3 {
		t.Fatalf("sequence literal = %v", rules[2].Body[0].Args[1].Term)
	}
	sArgs := rules[2].Body[1].Args
	if _, ok := sArgs[0].Term.(ast.MultisetTerm); !ok {
		t.Fatalf("multiset literal = %T", sArgs[0].Term)
	}
	if mod := rules[3].Body[1].Args[1].Term.(ast.BinExpr); mod.Op != "mod" {
		t.Fatalf("mod op = %v", mod)
	}
}

func TestParseComparisonVsSequence(t *testing.T) {
	rules, err := ParseProgram(`
p(X) <- q(X), X < 10, X >= 2.
r(S) <- S = <1, 2>.
`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Body[1].Pred != "<" || rules[0].Body[2].Pred != ">=" {
		t.Fatalf("comparisons = %v", rules[0].Body)
	}
	if _, ok := rules[1].Body[0].Args[1].Term.(ast.SeqTerm); !ok {
		t.Fatal("sequence literal after = not parsed")
	}
}

func TestParseTupleTermsAndWildcard(t *testing.T) {
	rules, err := ParseProgram(`
member(T, children(X)) <- parent(father: X, child: Y, bdate: Z), T = (person: Y, bdate: Z).
p(X) <- q(X, _).
`)
	if err != nil {
		t.Fatal(err)
	}
	eq := rules[0].Body[1]
	if tt, ok := eq.Args[1].Term.(ast.TupleTerm); !ok || len(tt.Args) != 2 || tt.Args[0].Label != "person" {
		t.Fatalf("tuple term = %v", eq.Args[1].Term)
	}
	if _, ok := rules[1].Body[0].Args[1].Term.(ast.Wildcard); !ok {
		t.Fatal("wildcard lost")
	}
}

func TestParseGoalSection(t *testing.T) {
	m, err := ParseModule(`
mode radi.
rules
  p(X) <- q(X).
goal
  ?- p(X), X > 3.
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasMod || m.Mode != ast.RADI {
		t.Fatalf("mode = %v", m.Mode)
	}
	if len(m.Goal) != 2 || m.Goal[0].Pred != "p" {
		t.Fatalf("goal = %v", m.Goal)
	}
}

func TestParseGoalStandalone(t *testing.T) {
	g, err := ParseGoal("?- ancestor(anc: X), X != 3.")
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 2 {
		t.Fatalf("goal = %v", g)
	}
	if _, err := ParseGoal("p(X). trailing"); err == nil {
		t.Fatal("trailing input accepted")
	}
}

func TestParseModeErrors(t *testing.T) {
	if _, err := ParseModule("mode bogus. end."); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := ParseProgram("p(X <- q(X).")
	if err == nil {
		t.Fatal("bad rule accepted")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if perr.Line != 1 || perr.Col == 0 {
		t.Fatalf("position = %d:%d", perr.Line, perr.Col)
	}
	if !strings.Contains(err.Error(), "parse error at") {
		t.Fatalf("message = %q", err)
	}
}

func TestParseRejectsJunk(t *testing.T) {
	bad := []string{
		"p(X) q(X).",    // missing arrow
		"<- .",          // empty denial
		"p(X) <- X.",    // bare variable literal
		"domains X = ;", // missing type
		"p(1) <- q(1)",  // missing dot
		"end junk",      // module end then junk handled at module level
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			if _, err2 := ParseModule(src); err2 == nil {
				t.Errorf("junk accepted: %q", src)
			}
		}
	}
}

func TestRoundTripStrings(t *testing.T) {
	rules, err := ParseProgram(`not p(a: X, self: Y) <- q(X), X >= 2, r(s: (t: X)).`)
	if err != nil {
		t.Fatal(err)
	}
	out := rules[0].String()
	for _, want := range []string{"not p", "self: Y", ">=", "(t: X)"} {
		if !strings.Contains(out, want) {
			t.Errorf("round trip missing %q: %s", want, out)
		}
	}
	reparsed, err := ParseProgram(out)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, out)
	}
	if reparsed[0].String() != out {
		t.Fatalf("not a fixpoint:\n%s\n%s", out, reparsed[0].String())
	}
}

func TestParseSemanticsDeclaration(t *testing.T) {
	m, err := ParseModule(`
module m.
mode radv.
semantics noninflationary.
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.NonInflationary {
		t.Fatal("semantics declaration lost")
	}
	m2, err := ParseModule(`semantics inflationary. end.`)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NonInflationary {
		t.Fatal("inflationary read as noninflationary")
	}
	if _, err := ParseModule(`semantics sideways. end.`); err == nil {
		t.Fatal("bogus semantics accepted")
	}
}

func TestParseStringEscapes(t *testing.T) {
	rules, err := ParseProgram(`p(x: "a\tb\\c\"d").`)
	if err != nil {
		t.Fatal(err)
	}
	c := rules[0].Head.Args[0].Term.(ast.Const)
	if c.Val != value.Str("a\tb\\c\"d") {
		t.Fatalf("escapes = %q", c.Val)
	}
}

func TestParseNegativeRealAndExpr(t *testing.T) {
	rules, err := ParseProgram(`p(x: -2.5). q(X) <- r(Y), X = -(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Head.Args[0].Term.(ast.Const).Val != value.Real(-2.5) {
		t.Fatalf("negative real = %v", rules[0].Head.Args[0].Term)
	}
	// -(Y) parses as 0 - Y.
	be, ok := rules[1].Body[1].Args[1].Term.(ast.BinExpr)
	if !ok || be.Op != "-" {
		t.Fatalf("unary minus = %v", rules[1].Body[1])
	}
}

func TestParseEmptyArgListAndNullaryGoal(t *testing.T) {
	rules, err := ParseProgram(`p() <- q().`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Head.Pred != "p" || len(rules[0].Head.Args) != 0 {
		t.Fatalf("empty-paren head = %v", rules[0].Head)
	}
	g, err := ParseGoal(`?- p().`)
	if err != nil || len(g) != 1 {
		t.Fatalf("nullary goal = %v (%v)", g, err)
	}
}

func TestParseMultipleSectionsRepeat(t *testing.T) {
	m, err := ParseModule(`
domains A = integer;
rules
  p(x: 1).
domains B = string;
associations P = (x: integer);
rules
  p(x: 2).
end.
`)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Schema.IsDomain("a") || !m.Schema.IsDomain("b") {
		t.Fatal("repeated sections lost declarations")
	}
	if len(m.Rules) != 2 {
		t.Fatalf("rules = %d", len(m.Rules))
	}
}

func TestParseModeAfterModuleOnly(t *testing.T) {
	// Mode must follow the module header; elsewhere it reads as a section
	// error.
	if _, err := ParseModule("rules p(x: 1). mode ridv. end."); err == nil {
		// 'mode' after rules is treated as a section keyword: the rules
		// loop stops, then parseModule sees 'mode' and errors.
		t.Fatal("misplaced mode accepted")
	}
}

// lex tokenizes all of src up front.
func lex(src string) ([]token, error) {
	l := newLexer(src)
	for !l.done {
		l.step()
	}
	if l.err != nil {
		return nil, l.err
	}
	return l.toks, nil
}
