package algres

import (
	"fmt"

	"logres/internal/ast"
	"logres/internal/value"
)

// A compiler from flat Datalog rules (positive and stratified-negative
// literals over flat relations, plus comparisons) to algebra expressions,
// evaluated naively or semi-naively through the closure operator. This is
// the paper's implementation route: LOGRES rules translate to ALGRES
// algebra (§5, [Ca90]).

// binding maps one relation attribute to a variable or constant.
type attrBinding struct {
	attr string
	v    string      // variable name ("" when constant)
	k    value.Value // constant (nil when variable)
}

type bodyAtom struct {
	pred     string
	negated  bool
	bindings []attrBinding
}

type comparison struct {
	op     string
	lv, rv string // variable names ("" = constant)
	lk, rk value.Value
}

type algRule struct {
	headPred string
	head     []attrBinding
	atoms    []bodyAtom
	cmps     []comparison
}

// RuleProgram is a compiled flat-Datalog program.
type RuleProgram struct {
	rules   []*algRule
	schemas map[string][]string
	opts    Opts
}

// CompileRules compiles rules against relation schemas (name → attribute
// list). Supported: positive/negated predicate literals with labelled or
// positional variable/constant arguments, and comparison literals between
// variables and constants. Heads must be positive with all variables
// bound by positive body literals.
func CompileRules(schemas map[string][]string, rules []*ast.Rule) (*RuleProgram, error) {
	return CompileRulesOpts(schemas, rules, Opts{})
}

// CompileRulesOpts is CompileRules configured by an options struct:
// opts.MaxSteps is the default fixpoint bound, and the context and
// budget axes bound every evaluation.
func CompileRulesOpts(schemas map[string][]string, rules []*ast.Rule, opts Opts) (*RuleProgram, error) {
	rp := &RuleProgram{schemas: schemas, opts: opts}
	for _, r := range rules {
		ar, err := compileAlgRule(schemas, r)
		if err != nil {
			return nil, fmt.Errorf("%v (in rule %s)", err, r)
		}
		rp.rules = append(rp.rules, ar)
	}
	return rp, nil
}

func compileAlgRule(schemas map[string][]string, r *ast.Rule) (*algRule, error) {
	if r.Head == nil {
		return nil, fmt.Errorf("algres: denials are not supported by the algebra compiler")
	}
	if r.Head.Negated {
		return nil, fmt.Errorf("algres: deletion heads are not supported by the algebra compiler")
	}
	ar := &algRule{headPred: r.Head.Pred}
	hb, err := bindArgs(schemas, r.Head.Pred, r.Head.Args)
	if err != nil {
		return nil, err
	}
	ar.head = hb
	bound := map[string]bool{}
	for _, l := range r.Body {
		if l.IsComparison() {
			c, err := compileComparison(l)
			if err != nil {
				return nil, err
			}
			ar.cmps = append(ar.cmps, c)
			continue
		}
		ab, err := bindArgs(schemas, l.Pred, l.Args)
		if err != nil {
			return nil, err
		}
		ar.atoms = append(ar.atoms, bodyAtom{pred: l.Pred, negated: l.Negated, bindings: ab})
		if !l.Negated {
			for _, b := range ab {
				if b.v != "" {
					bound[b.v] = true
				}
			}
		}
	}
	for _, b := range ar.head {
		if b.v != "" && !bound[b.v] {
			return nil, fmt.Errorf("algres: unsafe rule: head variable %s unbound", b.v)
		}
	}
	for _, c := range ar.cmps {
		for _, v := range []string{c.lv, c.rv} {
			if v != "" && !bound[v] {
				return nil, fmt.Errorf("algres: unsafe rule: comparison variable %s unbound", v)
			}
		}
	}
	for _, a := range ar.atoms {
		if !a.negated {
			continue
		}
		for _, b := range a.bindings {
			if b.v != "" && !bound[b.v] {
				return nil, fmt.Errorf("algres: unsafe rule: negated variable %s unbound", b.v)
			}
		}
	}
	return ar, nil
}

func bindArgs(schemas map[string][]string, pred string, args []ast.Arg) ([]attrBinding, error) {
	attrs, ok := schemas[pred]
	if !ok {
		return nil, fmt.Errorf("algres: unknown relation %q", pred)
	}
	claimed := map[string]bool{}
	var out []attrBinding
	var positional []ast.Term
	for _, a := range args {
		if a.Label == "" {
			positional = append(positional, a.Term)
			continue
		}
		found := false
		for _, at := range attrs {
			if at == a.Label {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("algres: relation %q has no attribute %q", pred, a.Label)
		}
		claimed[a.Label] = true
		b, err := termBinding(a.Label, a.Term)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	var remaining []string
	for _, at := range attrs {
		if !claimed[at] {
			remaining = append(remaining, at)
		}
	}
	if len(positional) > len(remaining) {
		return nil, fmt.Errorf("algres: %q: too many positional arguments", pred)
	}
	for i, t := range positional {
		b, err := termBinding(remaining[i], t)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func termBinding(attr string, t ast.Term) (attrBinding, error) {
	switch x := t.(type) {
	case ast.Var:
		return attrBinding{attr: attr, v: x.Name}, nil
	case ast.Const:
		return attrBinding{attr: attr, k: x.Val}, nil
	case ast.Wildcard:
		return attrBinding{attr: attr}, nil
	}
	return attrBinding{}, fmt.Errorf("algres: unsupported term %s", t)
}

func compileComparison(l ast.Literal) (comparison, error) {
	c := comparison{op: l.Pred}
	if l.Negated {
		return c, fmt.Errorf("algres: negated comparisons are not supported")
	}
	side := func(t ast.Term) (string, value.Value, error) {
		switch x := t.(type) {
		case ast.Var:
			return x.Name, nil, nil
		case ast.Const:
			return "", x.Val, nil
		}
		return "", nil, fmt.Errorf("algres: unsupported comparison operand %s", t)
	}
	var err error
	c.lv, c.lk, err = side(l.Args[0].Term)
	if err != nil {
		return c, err
	}
	c.rv, c.rk, err = side(l.Args[1].Term)
	return c, err
}

// varCol names the join column of a variable.
func varCol(v string) string { return "?" + v }

// evalRule evaluates one rule against db, returning the head relation.
func (rp *RuleProgram) evalRule(db *DB, ar *algRule, deltaPred string, delta *Relation) (*Relation, error) {
	var joined *Relation
	usedDelta := deltaPred == ""
	for _, atom := range ar.atoms {
		if atom.negated {
			continue
		}
		src, ok := db.Get(atom.pred)
		if !ok {
			src = NewRelation(rp.schemas[atom.pred]...)
		}
		if !usedDelta && atom.pred == deltaPred {
			src = delta
			usedDelta = true
		}
		rel, err := atomRelation(src, atom)
		if err != nil {
			return nil, err
		}
		if joined == nil {
			joined = rel
		} else {
			joined = Join(joined, rel)
		}
	}
	if joined == nil {
		// Body of constants/facts only.
		joined = NewRelation()
		joined.Insert(value.NewTuple())
	}
	// Comparisons.
	for _, c := range ar.cmps {
		cc := c
		joined = Select(joined, func(t value.Tuple) bool {
			lv := cc.lk
			if cc.lv != "" {
				lv, _ = t.Get(varCol(cc.lv))
			}
			rv := cc.rk
			if cc.rv != "" {
				rv, _ = t.Get(varCol(cc.rv))
			}
			if lv == nil || rv == nil {
				return false
			}
			switch cc.op {
			case "=":
				return value.Equal(lv, rv)
			case "!=":
				return !value.Equal(lv, rv)
			case "<":
				return value.Compare(lv, rv) < 0
			case "<=":
				return value.Compare(lv, rv) <= 0
			case ">":
				return value.Compare(lv, rv) > 0
			case ">=":
				return value.Compare(lv, rv) >= 0
			}
			return false
		})
	}
	// Negated atoms: anti-join.
	for _, atom := range ar.atoms {
		if !atom.negated {
			continue
		}
		src, ok := db.Get(atom.pred)
		if !ok {
			src = NewRelation(rp.schemas[atom.pred]...)
		}
		rel, err := atomRelation(src, atom)
		if err != nil {
			return nil, err
		}
		joined = AntiJoin(joined, rel)
	}
	// Head projection.
	out := NewRelation(rp.schemas[ar.headPred]...)
	for _, t := range joined.Tuples() {
		fields := make([]value.Field, 0, len(ar.head))
		for _, b := range ar.head {
			if b.v != "" {
				v, _ := t.Get(varCol(b.v))
				fields = append(fields, value.Field{Label: b.attr, Value: v})
			} else if b.k != nil {
				fields = append(fields, value.Field{Label: b.attr, Value: b.k})
			}
		}
		out.Insert(value.NewTuple(fields...))
	}
	return out, nil
}

// atomRelation restricts and renames a relation per the atom's bindings:
// constant selections, duplicate-variable selections, projection onto the
// variable columns.
func atomRelation(src *Relation, atom bodyAtom) (*Relation, error) {
	rel := src
	seen := map[string]string{} // var → first attr
	mapping := map[string]string{}
	var cols []string
	for _, b := range atom.bindings {
		switch {
		case b.k != nil:
			rel = SelectEqConst(rel, b.attr, b.k)
		case b.v != "":
			if first, dup := seen[b.v]; dup {
				rel = SelectEqAttr(rel, first, b.attr)
			} else {
				seen[b.v] = b.attr
				mapping[b.attr] = varCol(b.v)
				cols = append(cols, b.attr)
			}
		}
	}
	proj, err := Project(rel, cols...)
	if err != nil {
		return nil, err
	}
	return Rename(proj, mapping), nil
}

// EvalNaive computes the program's least fixpoint by naive iteration
// through the closure operator.
func (rp *RuleProgram) EvalNaive(db *DB, maxSteps int) (*DB, error) {
	o := rp.opts
	if maxSteps > 0 {
		o.MaxSteps = maxSteps
	}
	rp.ensureIDB(db)
	return FixpointOpts(db, func(cur *DB) (map[string]*Relation, error) {
		updates := map[string]*Relation{}
		for _, ar := range rp.rules {
			rel, err := rp.evalRule(cur, ar, "", nil)
			if err != nil {
				return nil, err
			}
			if prev, ok := updates[ar.headPred]; ok {
				merged, err := Union(prev, rel)
				if err != nil {
					return nil, err
				}
				updates[ar.headPred] = merged
			} else {
				updates[ar.headPred] = rel
			}
		}
		return updates, nil
	}, o)
}

// EvalSemiNaive computes the same fixpoint with delta iteration.
func (rp *RuleProgram) EvalSemiNaive(db *DB, maxSteps int) (*DB, error) {
	if maxSteps <= 0 {
		maxSteps = rp.opts.MaxSteps
	}
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	g := newRoundGuard(rp.opts)
	cur := db.Clone()
	rp.ensureIDB(cur)

	// Round 0: full evaluation.
	deltas := map[string]*Relation{}
	for _, ar := range rp.rules {
		rel, err := rp.evalRule(cur, ar, "", nil)
		if err != nil {
			return nil, err
		}
		dst, _ := cur.Get(ar.headPred)
		d := deltas[ar.headPred]
		if d == nil {
			d = NewRelation(rp.schemas[ar.headPred]...)
			deltas[ar.headPred] = d
		}
		for _, t := range rel.Tuples() {
			if !dst.Has(t) {
				d.Insert(t)
			}
		}
	}
	for round := 0; ; round++ {
		if round >= maxSteps {
			return nil, g.rounds(maxSteps, "semi-naive iteration did not converge")
		}
		if err := g.check(round); err != nil {
			return nil, err
		}
		total := 0
		for _, d := range deltas {
			total += d.Len()
		}
		if total == 0 {
			return cur, nil
		}
		// Merge deltas.
		for pred, d := range deltas {
			dst, _ := cur.Get(pred)
			for _, t := range d.Tuples() {
				if dst.Insert(t) {
					g.inserted++
				}
			}
		}
		next := map[string]*Relation{}
		for _, ar := range rp.rules {
			for _, atom := range ar.atoms {
				if atom.negated {
					continue
				}
				d := deltas[atom.pred]
				if d == nil || d.Len() == 0 {
					continue
				}
				rel, err := rp.evalRule(cur, ar, atom.pred, d)
				if err != nil {
					return nil, err
				}
				dst, _ := cur.Get(ar.headPred)
				nd := next[ar.headPred]
				if nd == nil {
					nd = NewRelation(rp.schemas[ar.headPred]...)
					next[ar.headPred] = nd
				}
				for _, t := range rel.Tuples() {
					if !dst.Has(t) {
						nd.Insert(t)
					}
				}
			}
		}
		deltas = next
	}
}

// ensureIDB creates empty relations for all head predicates.
func (rp *RuleProgram) ensureIDB(db *DB) {
	for _, ar := range rp.rules {
		if _, ok := db.Get(ar.headPred); !ok {
			db.Set(ar.headPred, NewRelation(rp.schemas[ar.headPred]...))
		}
	}
	for _, ar := range rp.rules {
		for _, atom := range ar.atoms {
			if _, ok := db.Get(atom.pred); !ok {
				db.Set(atom.pred, NewRelation(rp.schemas[atom.pred]...))
			}
		}
	}
}
