// Package ast defines the abstract syntax of the LOGRES rule language:
// terms, labelled arguments, literals (positive and negated, in heads and
// bodies), rules, goals and modules. The three variable kinds of §3.1 —
// ordinary typed variables, oid variables (labelled `self`) and tuple
// variables — are distinguished positionally: an argument labelled `self`
// binds an oid variable, an unlabelled bare variable spanning a class
// predicate's whole argument list is a tuple variable, and everything else
// is an ordinary variable.
package ast

import (
	"strings"

	"logres/internal/types"
	"logres/internal/value"
)

// SelfLabel is the distinguished label that binds oid variables.
const SelfLabel = "self"

// Term is a LOGRES term.
type Term interface {
	isTerm()
	String() string
}

// Const is a constant of an elementary or constructed type.
type Const struct{ Val value.Value }

// Var is a variable occurrence. Its kind (ordinary, oid, tuple) is
// resolved by the engine's analysis from the position it occupies.
type Var struct{ Name string }

// Wildcard is the anonymous variable `_`; each occurrence is distinct.
type Wildcard struct{}

// FuncApp is a data-function application, e.g. desc(X). A nullary function
// is a FuncApp with no arguments.
type FuncApp struct {
	Name string
	Args []Term
}

// BinExpr is an arithmetic expression, e.g. Y + 1.
type BinExpr struct {
	Op   string // + - * / mod
	L, R Term
}

// TupleTerm is a tuple-shaped term: (person: Y, bdate: Z). It also
// represents the parenthesized nested references of the paper's
// `school(dean(self X))`.
type TupleTerm struct{ Args []Arg }

// SetTerm is a set literal {t1, …, tn}.
type SetTerm struct{ Elems []Term }

// MultisetTerm is a multiset literal [t1, …, tn].
type MultisetTerm struct{ Elems []Term }

// SeqTerm is a sequence literal <t1, …, tn>.
type SeqTerm struct{ Elems []Term }

func (Const) isTerm()        {}
func (Var) isTerm()          {}
func (Wildcard) isTerm()     {}
func (FuncApp) isTerm()      {}
func (BinExpr) isTerm()      {}
func (TupleTerm) isTerm()    {}
func (SetTerm) isTerm()      {}
func (MultisetTerm) isTerm() {}
func (SeqTerm) isTerm()      {}

func (c Const) String() string   { return c.Val.String() }
func (v Var) String() string     { return v.Name }
func (Wildcard) String() string  { return "_" }
func (f FuncApp) String() string { return f.Name + "(" + joinTerms(f.Args) + ")" }
func (b BinExpr) String() string { return b.L.String() + " " + b.Op + " " + b.R.String() }
func (t TupleTerm) String() string {
	return "(" + joinArgs(t.Args) + ")"
}
func (s SetTerm) String() string      { return "{" + joinTerms(s.Elems) + "}" }
func (m MultisetTerm) String() string { return "[" + joinTerms(m.Elems) + "]" }
func (q SeqTerm) String() string      { return "<" + joinTerms(q.Elems) + ">" }

func joinTerms(ts []Term) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}

// Arg is one (possibly labelled) argument of a literal or tuple term.
type Arg struct {
	Label string // "" for positional/tuple-variable arguments
	Term  Term
}

func (a Arg) String() string {
	if a.Label == "" {
		return a.Term.String()
	}
	return a.Label + ": " + a.Term.String()
}

func joinArgs(args []Arg) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// Literal is one (possibly negated) atom.
type Literal struct {
	Negated bool
	Pred    string // canonical predicate or built-in name
	Args    []Arg
}

// comparisonPreds are the built-in relational predicates, printed infix.
var comparisonPreds = map[string]bool{
	"=": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
}

// IsComparison reports whether the literal is a relational built-in.
func (l Literal) IsComparison() bool { return comparisonPreds[l.Pred] }

func (l Literal) String() string {
	var b strings.Builder
	if l.Negated {
		b.WriteString("not ")
	}
	if l.IsComparison() && len(l.Args) == 2 {
		b.WriteString(l.Args[0].Term.String())
		b.WriteString(" " + l.Pred + " ")
		b.WriteString(l.Args[1].Term.String())
		return b.String()
	}
	b.WriteString(l.Pred)
	if len(l.Args) > 0 {
		b.WriteByte('(')
		b.WriteString(joinArgs(l.Args))
		b.WriteByte(')')
	}
	return b.String()
}

// Clone returns a deep copy of the literal (terms are immutable; the arg
// slice is copied).
func (l Literal) Clone() Literal {
	args := make([]Arg, len(l.Args))
	copy(args, l.Args)
	return Literal{Negated: l.Negated, Pred: l.Pred, Args: args}
}

// Rule is `Head ← Body`. A nil Head is a passive integrity constraint
// (denial, §4.2); an empty Body is a fact. A Head with Negated=true is an
// explicit deletion (§3.1).
type Rule struct {
	Head *Literal
	Body []Literal
}

func (r *Rule) String() string {
	var b strings.Builder
	if r.Head != nil {
		b.WriteString(r.Head.String())
	}
	if len(r.Body) > 0 || r.Head == nil {
		b.WriteString(" <- ")
		parts := make([]string, len(r.Body))
		for i, l := range r.Body {
			parts[i] = l.String()
		}
		b.WriteString(strings.Join(parts, ", "))
	}
	b.WriteByte('.')
	return strings.TrimSpace(b.String())
}

// Mode is a module application mode (§4.1).
type Mode int

// The six application modes: Rule Invariant/Addition/Deletion × Data
// Invariant/Variant.
const (
	RIDI Mode = iota // ordinary query
	RADI             // add rules to the persistent IDB
	RDDI             // delete rules from the persistent IDB
	RIDV             // update the EDB only
	RADV             // add rules and update the EDB
	RDDV             // delete rules and update the EDB
)

var modeNames = [...]string{"RIDI", "RADI", "RDDI", "RIDV", "RADV", "RDDV"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode?"
}

// ParseMode resolves a mode name.
func ParseMode(s string) (Mode, bool) {
	for i, n := range modeNames {
		if strings.EqualFold(s, n) {
			return Mode(i), true
		}
	}
	return RIDI, false
}

// DataVariant reports whether the mode updates the EDB.
func (m Mode) DataVariant() bool { return m == RIDV || m == RADV || m == RDDV }

// HasGoal reports whether the mode admits a goal answer (only the data-
// invariant modes do, §4.1).
func (m Mode) HasGoal() bool { return !m.DataVariant() }

// Module is the triple (R_M, S_M, G_M) of §4.1, plus an optional name and
// declared default mode.
type Module struct {
	Name   string
	Mode   Mode
	HasMod bool // whether a mode was declared in the source
	// NonInflationary selects the non-inflationary rule semantics for
	// this module's application (§1: modules are parametric in the
	// semantics of their rules).
	NonInflationary bool
	Schema          *types.Schema
	Rules           []*Rule
	Goal            []Literal // conjunctive goal; empty = no goal
}

// VarSet collects the named variables of a slice of literals, in first-
// occurrence order.
func VarSet(lits []Literal) []string {
	var order []string
	seen := map[string]bool{}
	var walk func(Term)
	walk = func(t Term) {
		switch x := t.(type) {
		case Var:
			if !seen[x.Name] {
				seen[x.Name] = true
				order = append(order, x.Name)
			}
		case FuncApp:
			for _, a := range x.Args {
				walk(a)
			}
		case BinExpr:
			walk(x.L)
			walk(x.R)
		case TupleTerm:
			for _, a := range x.Args {
				walk(a.Term)
			}
		case SetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case MultisetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case SeqTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		}
	}
	for _, l := range lits {
		for _, a := range l.Args {
			walk(a.Term)
		}
	}
	return order
}
