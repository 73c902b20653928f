package ast

import (
	"strings"
	"testing"

	"logres/internal/value"
)

func TestTermStrings(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{Const{Val: value.Int(3)}, "3"},
		{Const{Val: value.Str("x")}, `"x"`},
		{Var{Name: "X"}, "X"},
		{Wildcard{}, "_"},
		{FuncApp{Name: "desc", Args: []Term{Var{Name: "Y"}}}, "desc(Y)"},
		{FuncApp{Name: "junior"}, "junior()"},
		{BinExpr{Op: "+", L: Var{Name: "X"}, R: Const{Val: value.Int(1)}}, "X + 1"},
		{TupleTerm{Args: []Arg{{Label: "a", Term: Var{Name: "X"}}, {Term: Const{Val: value.Int(2)}}}}, "(a: X, 2)"},
		{SetTerm{Elems: []Term{Const{Val: value.Int(1)}}}, "{1}"},
		{MultisetTerm{Elems: []Term{Const{Val: value.Int(1)}, Const{Val: value.Int(1)}}}, "[1, 1]"},
		{SeqTerm{Elems: []Term{Var{Name: "A"}, Var{Name: "B"}}}, "<A, B>"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("%T.String() = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestLiteralStrings(t *testing.T) {
	pos := Literal{Pred: "person", Args: []Arg{
		{Label: SelfLabel, Term: Var{Name: "X"}},
		{Label: "name", Term: Const{Val: value.Str("ann")}},
	}}
	if got := pos.String(); got != `person(self: X, name: "ann")` {
		t.Fatalf("positive literal = %q", got)
	}
	neg := Literal{Negated: true, Pred: "p"}
	if got := neg.String(); got != "not p" {
		t.Fatalf("negated nullary literal = %q", got)
	}
	cmp := Literal{Pred: "<=", Args: []Arg{{Term: Var{Name: "X"}}, {Term: Const{Val: value.Int(3)}}}}
	if got := cmp.String(); got != "X <= 3" {
		t.Fatalf("comparison = %q", got)
	}
	if !cmp.IsComparison() || pos.IsComparison() {
		t.Fatal("IsComparison wrong")
	}
}

func TestLiteralClone(t *testing.T) {
	l := Literal{Pred: "p", Args: []Arg{{Term: Var{Name: "X"}}}}
	cp := l.Clone()
	cp.Args[0] = Arg{Term: Var{Name: "Y"}}
	if l.Args[0].Term.(Var).Name != "X" {
		t.Fatal("Clone shares the arg slice")
	}
}

func TestRuleStringsAndPredicates(t *testing.T) {
	head := Literal{Pred: "q", Args: []Arg{{Term: Var{Name: "X"}}}}
	body := []Literal{{Pred: "p", Args: []Arg{{Term: Var{Name: "X"}}}}}
	r := &Rule{Head: &head, Body: body}
	if got := r.String(); got != "q(X) <- p(X)." {
		t.Fatalf("rule = %q", got)
	}
	fact := &Rule{Head: &head}
	if got := fact.String(); got != "q(X)." {
		t.Fatalf("fact = %q", got)
	}
	denial := &Rule{Body: body}
	if got := denial.String(); !strings.HasPrefix(got, "<- ") {
		t.Fatalf("denial = %q", got)
	}
}

func TestModes(t *testing.T) {
	for _, c := range []struct {
		name string
		mode Mode
		dv   bool
	}{
		{"RIDI", RIDI, false}, {"RADI", RADI, false}, {"RDDI", RDDI, false},
		{"RIDV", RIDV, true}, {"RADV", RADV, true}, {"RDDV", RDDV, true},
	} {
		m, ok := ParseMode(c.name)
		if !ok || m != c.mode {
			t.Errorf("ParseMode(%s) = %v, %v", c.name, m, ok)
		}
		if m.String() != c.name {
			t.Errorf("%v.String() = %q", m, m.String())
		}
		if m.DataVariant() != c.dv || m.HasGoal() == c.dv {
			t.Errorf("%s variant flags wrong", c.name)
		}
	}
	if m, ok := ParseMode("ridv"); !ok || m != RIDV {
		t.Error("ParseMode not case-insensitive")
	}
	if _, ok := ParseMode("nope"); ok {
		t.Error("bogus mode parsed")
	}
}

func TestVarSetOrderAndNesting(t *testing.T) {
	lits := []Literal{
		{Pred: "p", Args: []Arg{
			{Term: Var{Name: "B"}},
			{Term: TupleTerm{Args: []Arg{{Label: "x", Term: Var{Name: "A"}}}}},
		}},
		{Pred: "=", Args: []Arg{
			{Term: Var{Name: "C"}},
			{Term: BinExpr{Op: "+", L: Var{Name: "A"}, R: FuncApp{Name: "f", Args: []Term{Var{Name: "D"}}}}},
		}},
		{Pred: "q", Args: []Arg{
			{Term: SetTerm{Elems: []Term{Var{Name: "E"}}}},
			{Term: MultisetTerm{Elems: []Term{Var{Name: "F"}}}},
			{Term: SeqTerm{Elems: []Term{Var{Name: "G"}}}},
		}},
	}
	got := VarSet(lits)
	want := "B,A,C,D,E,F,G"
	if strings.Join(got, ",") != want {
		t.Fatalf("VarSet = %v, want %s", got, want)
	}
}
