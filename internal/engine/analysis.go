package engine

import (
	"fmt"

	"logres/internal/ast"
	"logres/internal/types"
)

// predKind classifies a body literal's predicate.
type predKind int

const (
	pkClass predKind = iota
	pkAssoc
	pkBuiltin // member, union, …
	pkCompare // = != < <= > >=
)

// compArg is one resolved component argument: the effective-tuple label it
// addresses and the term supplied for it.
type compArg struct {
	label string
	term  ast.Term
}

// resolvedLit is a compiled body literal.
type resolvedLit struct {
	kind    predKind
	pred    string
	negated bool

	// class/association literals
	selfTerm  ast.Term  // classes only; nil if absent
	comps     []compArg // labelled component arguments
	tupleVars []string  // variables bound to the whole object/tuple
	eff       types.Tuple

	// builtins and comparisons
	args []ast.Term

	// negation support: unbound variables enumerated over the active
	// domain, with their active-domain keys (filled by the ordering pass).
	adVars []adVar
}

type adVar struct {
	name string
	key  string // active-domain key of the variable's declared type
}

// headKind classifies rule heads.
type headKind int

const (
	hClass headKind = iota
	hAssoc
	hFunc // member(X, f(…)) — data-function definition
)

// headSpec is a compiled rule head.
type headSpec struct {
	kind    headKind
	pred    string
	negated bool
	eff     types.Tuple

	selfTerm ast.Term // classes: the self argument (a Var or bound term)
	selfVar  string   // name of the self variable, "" if none
	comps    []compArg
	tupleVar string // head whole-tuple variable, "" if none
	copyFrom string // tuple variable of the body literal supplying values
	// for the invention-copy case (§3.1 case a)

	fnArg    ast.Term // function heads: argument term (nil for nullary)
	fnMember ast.Term // function heads: member term
}

// crule is a compiled rule: resolved head, body in evaluation order.
type crule struct {
	id        int
	src       *ast.Rule
	head      *headSpec // nil for denials
	body      []resolvedLit
	vars      []string // all rule variables, sorted, for valuation-domain identity
	inventive bool
	generated bool // produced by constraint generation, not user-written
}

func (r *crule) String() string {
	if r.src != nil {
		return r.src.String()
	}
	return fmt.Sprintf("generated rule #%d", r.id)
}

// builtinArity maps builtin names to their arities.
var builtinArity = map[string]int{
	"member": 2, "union": 3, "append": 3, "intersection": 3,
	"difference": 3, "count": 2, "sum": 2, "min": 2, "max": 2,
	"avg": 2, "length": 2, "nth": 3,
}

// resolveLiteral compiles one body or goal literal against the schema.
func resolveLiteral(s *types.Schema, lit ast.Literal) (resolvedLit, error) {
	if lit.IsComparison() {
		if len(lit.Args) != 2 {
			return resolvedLit{}, fmt.Errorf("engine: comparison %q needs 2 arguments", lit.Pred)
		}
		return resolvedLit{
			kind: pkCompare, pred: lit.Pred, negated: lit.Negated,
			args: []ast.Term{lit.Args[0].Term, lit.Args[1].Term},
		}, nil
	}
	if n, ok := builtinArity[lit.Pred]; ok {
		if len(lit.Args) != n {
			return resolvedLit{}, fmt.Errorf("engine: builtin %s expects %d arguments, got %d", lit.Pred, n, len(lit.Args))
		}
		args := make([]ast.Term, len(lit.Args))
		for i, a := range lit.Args {
			if a.Label != "" {
				return resolvedLit{}, fmt.Errorf("engine: builtin %s takes no labelled arguments", lit.Pred)
			}
			args[i] = a.Term
		}
		return resolvedLit{kind: pkBuiltin, pred: lit.Pred, negated: lit.Negated, args: args}, nil
	}
	d, ok := s.Lookup(lit.Pred)
	if !ok {
		return resolvedLit{}, fmt.Errorf("engine: unknown predicate %q", lit.Pred)
	}
	switch d.Kind {
	case types.DeclFunction:
		return resolvedLit{}, fmt.Errorf("engine: function %q used as a predicate; use member(X, %s(…))", lit.Pred, lit.Pred)
	case types.DeclDomain:
		return resolvedLit{}, fmt.Errorf("engine: domain %q used as a predicate", lit.Pred)
	}
	eff, err := s.EffectiveTuple(lit.Pred)
	if err != nil {
		return resolvedLit{}, err
	}
	rl := resolvedLit{pred: lit.Pred, negated: lit.Negated, eff: eff}
	if d.Kind == types.DeclClass {
		rl.kind = pkClass
	} else {
		rl.kind = pkAssoc
	}
	if err := resolveArgs(&rl.selfTerm, &rl.comps, &rl.tupleVars, lit.Args, eff, rl.kind == pkClass, lit.Pred); err != nil {
		return resolvedLit{}, err
	}
	return rl, nil
}

// resolveArgs maps a literal's argument list onto the predicate's effective
// tuple:
//
//   - `self: t` binds the oid (classes only);
//   - `label: t` binds the named component;
//   - in class literals, unlabelled bare variables are tuple variables
//     binding the whole object, and unlabelled non-variable terms fill the
//     unclaimed components positionally;
//   - in association literals, when the unlabelled arguments exactly fill
//     the unclaimed components they map positionally; a single unlabelled
//     bare variable that cannot (arity mismatch) is a tuple variable.
func resolveArgs(selfTerm *ast.Term, comps *[]compArg, tupleVars *[]string,
	args []ast.Arg, eff types.Tuple, isClass bool, pred string) error {

	claimed := map[string]bool{}
	var unlabelled []ast.Term
	for _, a := range args {
		if a.Label == ast.SelfLabel {
			if !isClass {
				return fmt.Errorf("engine: self argument on non-class predicate %q", pred)
			}
			if *selfTerm != nil {
				return fmt.Errorf("engine: duplicate self argument on %q", pred)
			}
			*selfTerm = a.Term
			continue
		}
		if a.Label != "" {
			if _, ok := eff.Get(a.Label); !ok {
				return fmt.Errorf("engine: %q has no component %q", pred, a.Label)
			}
			if claimed[a.Label] {
				return fmt.Errorf("engine: duplicate component %q on %q", a.Label, pred)
			}
			claimed[a.Label] = true
			*comps = append(*comps, compArg{label: a.Label, term: a.Term})
			continue
		}
		unlabelled = append(unlabelled, a.Term)
	}
	// Remaining (unclaimed) components in declaration order.
	var remaining []string
	for _, f := range eff.Fields {
		if !claimed[f.Label] {
			remaining = append(remaining, f.Label)
		}
	}
	if isClass {
		var positional []ast.Term
		for _, t := range unlabelled {
			switch x := t.(type) {
			case ast.Var:
				*tupleVars = append(*tupleVars, x.Name)
			case ast.Wildcard:
				// matches anything; ignore
			default:
				positional = append(positional, t)
			}
		}
		if len(positional) > len(remaining) {
			return fmt.Errorf("engine: %q: %d positional arguments for %d free components", pred, len(positional), len(remaining))
		}
		for i, t := range positional {
			*comps = append(*comps, compArg{label: remaining[i], term: t})
		}
		return nil
	}
	// Associations.
	if len(unlabelled) == 0 {
		return nil
	}
	if len(unlabelled) == len(remaining) {
		for i, t := range unlabelled {
			*comps = append(*comps, compArg{label: remaining[i], term: t})
		}
		return nil
	}
	if len(unlabelled) == 1 {
		if v, ok := unlabelled[0].(ast.Var); ok {
			*tupleVars = append(*tupleVars, v.Name)
			return nil
		}
	}
	return fmt.Errorf("engine: %q: cannot map %d unlabelled arguments onto %d free components",
		pred, len(unlabelled), len(remaining))
}

// resolveHead compiles a rule head.
func resolveHead(s *types.Schema, lit ast.Literal) (*headSpec, error) {
	if lit.IsComparison() {
		return nil, fmt.Errorf("engine: comparison %q cannot be a rule head", lit.Pred)
	}
	if lit.Pred == "member" {
		// Data-function definition: member(X, f(arg)).
		if len(lit.Args) != 2 {
			return nil, fmt.Errorf("engine: head member needs 2 arguments")
		}
		app, ok := lit.Args[1].Term.(ast.FuncApp)
		if !ok {
			return nil, fmt.Errorf("engine: head member's second argument must be a function application")
		}
		d, ok := s.Lookup(app.Name)
		if !ok || d.Kind != types.DeclFunction {
			return nil, fmt.Errorf("engine: %q is not a declared function", app.Name)
		}
		h := &headSpec{kind: hFunc, pred: types.Canon(app.Name), negated: lit.Negated,
			fnMember: lit.Args[0].Term}
		switch {
		case d.Arg == nil && len(app.Args) == 0:
		case d.Arg != nil && len(app.Args) == 1:
			h.fnArg = app.Args[0]
		default:
			return nil, fmt.Errorf("engine: function %q arity mismatch", app.Name)
		}
		return h, nil
	}
	if _, ok := builtinArity[lit.Pred]; ok {
		return nil, fmt.Errorf("engine: builtin %q cannot be a rule head", lit.Pred)
	}
	d, ok := s.Lookup(lit.Pred)
	if !ok {
		return nil, fmt.Errorf("engine: unknown head predicate %q", lit.Pred)
	}
	if d.Kind == types.DeclDomain || d.Kind == types.DeclFunction {
		return nil, fmt.Errorf("engine: %s %q cannot be a rule head", d.Kind, lit.Pred)
	}
	eff, err := s.EffectiveTuple(lit.Pred)
	if err != nil {
		return nil, err
	}
	h := &headSpec{pred: lit.Pred, negated: lit.Negated, eff: eff}
	if d.Kind == types.DeclClass {
		h.kind = hClass
	} else {
		h.kind = hAssoc
	}
	var tupleVars []string
	if err := resolveArgs(&h.selfTerm, &h.comps, &tupleVars, lit.Args, eff, h.kind == hClass, lit.Pred); err != nil {
		return nil, err
	}
	if len(tupleVars) > 1 {
		return nil, fmt.Errorf("engine: head %q has %d tuple variables", lit.Pred, len(tupleVars))
	}
	if len(tupleVars) == 1 {
		h.tupleVar = tupleVars[0]
	}
	if h.selfTerm != nil {
		if v, ok := h.selfTerm.(ast.Var); ok {
			h.selfVar = v.Name
		}
	}
	if h.kind == hAssoc && h.selfTerm != nil {
		return nil, fmt.Errorf("engine: association head %q cannot have a self argument", lit.Pred)
	}
	return h, nil
}
