package engine

import (
	"maps"
	"slices"
	"testing"

	"logres/internal/ast"
	"logres/internal/types"
)

// readsSchema and readsRules add what the corpora below lack: a
// data-function term in a head, a defining rule's read of its own
// function (the recursive descendants of Example 3.2), a denial, and a
// negated literal over the active domain.
const readsSchema = `
domains NAME = string;
associations
  PARENT = (par: NAME, chil: NAME);
  ANCESTOR = (anc: NAME, des: {NAME});
  ORPHAN = (a: NAME, b: NAME);
functions
  DESC: NAME -> {NAME};
`

const readsRules = `
member(X, desc(Y)) <- parent(par: Y, chil: X).
member(X, desc(Y)) <- parent(par: Y, chil: Z), member(X, T), T = desc(Z).
ancestor(anc: X, des: desc(X)) <- parent(par: X).
orphan(a: X, b: Y) <- parent(par: X), not parent(par: Y, chil: X), not ancestor(anc: X).
<- ancestor(anc: X), not parent(par: X).
`

// astReads recomputes from a rule's source and the schema what
// compileRule records of it: the class and association predicates its
// body matches, each with whether a literal over it is negated; whether
// one is; the data functions its terms read, sorted; and whether a
// negated literal has a variable that no other literal binds, which then
// ranges over the active domain.
func astReads(s *types.Schema, r *ast.Rule) (preds map[string]bool, negates bool, funcs []string, universal bool) {
	var walk func(t ast.Term)
	walk = func(t ast.Term) {
		switch x := t.(type) {
		case ast.FuncApp:
			if !slices.Contains(funcs, x.Name) {
				funcs = append(funcs, x.Name)
			}
			for _, a := range x.Args {
				walk(a)
			}
		case ast.BinExpr:
			walk(x.L)
			walk(x.R)
		case ast.TupleTerm:
			for _, a := range x.Args {
				walk(a.Term)
			}
		case ast.SetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.MultisetTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		case ast.SeqTerm:
			for _, e := range x.Elems {
				walk(e)
			}
		}
	}
	if h := r.Head; h != nil {
		for i, a := range h.Args {
			// member(X, f(…)) defines f: of its application only the
			// arguments are read.
			if app, ok := a.Term.(ast.FuncApp); ok && h.Pred == "member" && i == 1 && s.IsFunction(app.Name) {
				for _, arg := range app.Args {
					walk(arg)
				}
				continue
			}
			walk(a.Term)
		}
	}
	preds = map[string]bool{}
	bound := map[string]bool{}
	for _, l := range r.Body {
		for _, a := range l.Args {
			walk(a.Term)
		}
		if s.IsClass(l.Pred) || s.IsAssociation(l.Pred) {
			preds[l.Pred] = preds[l.Pred] || l.Negated
			negates = negates || l.Negated
		}
		if !l.Negated {
			for _, v := range ast.VarSet([]ast.Literal{l}) {
				bound[v] = true
			}
		}
	}
	for _, l := range r.Body {
		if _, reads := preds[l.Pred]; reads && l.Negated {
			for _, v := range ast.VarSet([]ast.Literal{l}) {
				universal = universal || !bound[v]
			}
		}
	}
	slices.Sort(funcs)
	return preds, negates, funcs, universal
}

// What a compiled rule or denial reads — the predicates its body matches
// (eachRead), whether it negates one, the data functions its terms read
// and whether it enumerates the active domain — is what its source
// says, on every program of the engine's corpora and on readsRules.
func TestCompiledReadsMatchTheAST(t *testing.T) {
	type program struct{ name, schema, rules string }
	var programs []program
	for name, rules := range vecPrograms {
		programs = append(programs, program{"vec/" + name, vecSchema, rules})
	}
	for name, rules := range deltaJoinPrograms {
		programs = append(programs, program{"deltajoin/" + name, deltaJoinSchema, rules})
	}
	for _, tc := range ivmPrograms {
		programs = append(programs, program{"ivm/" + tc.name, ivmSchema, tc.rules})
	}
	for _, c := range referencePlanCases() {
		programs = append(programs, program{"plan/" + c.name, c.schema, c.rules})
	}
	programs = append(programs, program{"reads", readsSchema, readsRules})

	seen := map[string]bool{}
	for _, pr := range programs {
		p, err := tryBuild(pr.schema, pr.rules, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, r := range append(slices.Clone(p.rules), p.denials...) {
			wantPreds, wantNegates, wantFuncs, wantUniversal := astReads(p.schema, r.src)
			gotPreds := map[string]bool{}
			r.eachRead(func(pred string, negated bool) { gotPreds[pred] = gotPreds[pred] || negated })
			if !maps.Equal(gotPreds, wantPreds) {
				t.Errorf("%s: %s reads predicates %v, its source %v", pr.name, r, gotPreds, wantPreds)
			}
			if !slices.Equal(r.funcs, wantFuncs) {
				t.Errorf("%s: %s reads functions %v, its source %v", pr.name, r, r.funcs, wantFuncs)
			}
			if r.negates != wantNegates {
				t.Errorf("%s: %s negates a predicate: %v, its source %v", pr.name, r, r.negates, wantNegates)
			}
			if r.universal != wantUniversal {
				t.Errorf("%s: %s enumerates the active domain: %v, its source %v", pr.name, r, r.universal, wantUniversal)
			}
			switch {
			case r.head == nil:
				seen["denial"] = true
			case r.head.kind == hFunc && slices.Contains(r.funcs, r.head.pred):
				seen["own function"] = true
			case r.head.kind != hFunc && len(r.funcs) > 0:
				seen["function term outside a function head"] = true
			}
			if r.universal {
				seen["active domain"] = true
			}
			if r.negates {
				seen["negation"] = true
			}
		}
	}
	for _, what := range []string{"denial", "own function", "function term outside a function head", "active domain", "negation"} {
		if !seen[what] {
			t.Errorf("no rule covers %s", what)
		}
	}
}
