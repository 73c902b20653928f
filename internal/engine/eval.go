package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"logres/internal/ast"
	"logres/internal/colset"
	"logres/internal/guard"
	"logres/internal/hooks"
	"logres/internal/instance"
	"logres/internal/value"
)

// evalCtx carries the per-step evaluation state: the frozen fact set the
// step matches against, the lazily built active domain, and the oid
// counter used by invention.
type evalCtx struct {
	p       *Program
	f       *FactSet
	ad      *activeDomain
	counter *int64

	// reemit switches head instantiation to non-inflationary behaviour:
	// heads already satisfied re-emit the satisfying facts (so they
	// survive the step) instead of being suppressed.
	reemit bool

	stats *Stats

	// g, when non-nil, is the armed guard the coarse in-round check
	// polls every inRoundCheckInterval fact iterations, so a single
	// cross-product round cannot overrun its deadline or fact budget.
	// nil when no cancellation or budget axis is armed — the unguarded
	// hot path pays one nil check per fact.
	g     *guard.Guard
	round int
	steps int
	// emitted counts head instantiations in this context; the in-round
	// fact-axis check adds it to the base count, since facts derived
	// mid-round live in the round's Δ sets the base set cannot see.
	emitted int
	// inventions await their oids until the running rule's enumeration
	// ends (numberInventions); the in-round check counts them as invented.
	inventions []invention
	// oidWinners holds, per object given an o-value in this step, the
	// valuation key of the firing whose o-value Δ+ keeps (addForOID).
	oidWinners map[oidSlot]string
	// exclude, when non-nil, holds stored facts no match may use: DRed's
	// first-layer check reads the view as if its over-deletion were gone
	// without dropping it (updateDRed). The row loop leaves it nil and
	// pays one nil check per fact.
	exclude *FactSet
}

// invention is a head fact awaiting its oid, under its valuation's key.
type invention struct {
	key  string
	fact Fact
}

func (c *evalCtx) activeDom() *activeDomain {
	if c.ad == nil {
		c.ad = buildActiveDomain(c.p.schema, c.f)
	}
	return c.ad
}

// matchBody enumerates all valuations of the (ordered) body starting at
// literal i, extending e; yield is called once per complete valuation.
func (c *evalCtx) matchBody(body []resolvedLit, i int, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	return c.matchLit(body[i], e, func(e2 *env) error {
		return c.matchBody(body, i+1, e2, yield)
	})
}

func (c *evalCtx) matchLit(l resolvedLit, e *env, yield func(*env) error) error {
	switch l.kind {
	case pkClass, pkAssoc:
		if l.negated {
			return c.matchNegated(l, e, yield)
		}
		source := c.f
		return c.matchPositive(l, source, e, yield)
	case pkCompare:
		return c.matchCompare(l, e, yield)
	case pkBuiltin:
		return c.evalBuiltin(l, e, yield)
	}
	return fmt.Errorf("engine: unhandled literal kind")
}

// matchPositive joins a positive predicate literal against its extension,
// narrowed by what the bindings fix (FactSet.lookup).
func (c *evalCtx) matchPositive(l resolvedLit, source *FactSet, e *env, yield func(*env) error) error {
	var buf [8]fixedArg
	fixed, all := c.fixedArgs(l, e, buf[:0])
	return c.matchFacts(l, fixed, all, source.lookup(l.pred, l.eff, fixed), e, yield)
}

// matchFacts unifies l with each candidate fact and yields every
// extension of e, binding in place and undoing after each candidate. A
// candidate that disagrees with an argument the bindings already fix,
// or that c.exclude holds, is rejected before anything is bound, and
// when those arguments are all of l's, an admitted candidate yields e
// as it is: the match binds nothing new.
func (c *evalCtx) matchFacts(l resolvedLit, fixed []fixedArg, all bool, cs candidates, e *env, yield func(*env) error) error {
	var err error
	m := e.mark()
	cs.each(func(fact Fact) bool {
		c.steps++
		if c.g != nil && c.steps%inRoundCheckInterval == 0 {
			if err = c.p.inRoundCheck(c.g, c.round, l.pred, c.factCount, c.invented()); err != nil {
				return false
			}
		}
		if !admits(fixed, fact) || c.exclude != nil && c.exclude.Has(fact) {
			return true
		}
		ok := true
		if !all {
			ok, err = c.matchFact(l, fact, e)
		}
		if err == nil && ok {
			err = yield(e)
		}
		e.undo(m)
		return err == nil
	})
	return err
}

// fixedArg is an argument of a predicate literal or head whose value the
// bindings fix, under a component label or, with self set, as the oid.
type fixedArg struct {
	label string
	self  bool
	v     value.Value
}

// fixedArgs appends to out the arguments of l that e fixes, the oid
// first: a constant, a bound variable, or a term that evaluates (X+1,
// f(X)). A term whose evaluation fails fixes nothing: matchFact reports
// the error on a candidate that agrees with the fixed arguments. A tuple
// term is matched label by label, not by its value. all reports that the
// fixed arguments are every argument of l save wildcards, and that l has
// no tuple variable: a fact they admit matches without binding anything.
func (c *evalCtx) fixedArgs(l resolvedLit, e *env, out []fixedArg) (fixed []fixedArg, all bool) {
	all = len(l.tupleVars) == 0
	add := func(t ast.Term, a fixedArg) {
		var ok bool
		switch x := t.(type) {
		case ast.Wildcard:
			return
		case ast.Const:
			a.v, ok = x.Val, true
		case ast.Var:
			var b binding
			if b, ok = e.lookup(x.Name); ok {
				a.v = b.coerce()
			}
		case ast.TupleTerm:
		default:
			if e.evaluable(t) {
				var err error
				a.v, err = evalTerm(t, e, c.f)
				ok = err == nil
			}
		}
		if ok {
			out = append(out, a)
		} else {
			all = false
		}
	}
	if l.selfTerm != nil {
		add(l.selfTerm, fixedArg{self: true})
	}
	for _, comp := range l.comps {
		add(comp.term, fixedArg{label: comp.label})
	}
	return out, all
}

// admits reports whether fact agrees with every fixed argument, as
// matchFact would compare them (a missing component is null).
func admits(fixed []fixedArg, fact Fact) bool {
	for _, a := range fixed {
		if a.self {
			if r, ok := a.v.(value.Ref); !ok || value.OID(r) != fact.OID {
				return false
			}
			continue
		}
		v, found := fact.Tuple.Get(a.label)
		if !found {
			v = value.Null{}
		}
		if !value.Equal(a.v, v) {
			return false
		}
	}
	return true
}

// matchFact unifies one literal against one fact.
func (c *evalCtx) matchFact(l resolvedLit, fact Fact, e *env) (bool, error) {
	if l.selfTerm != nil {
		ok, err := matchTerm(l.selfTerm, value.Ref(fact.OID), e, c.f)
		if err != nil || !ok {
			return ok, err
		}
	}
	for _, comp := range l.comps {
		v, found := fact.Tuple.Get(comp.label)
		if !found {
			v = value.Null{}
		}
		ok, err := matchTerm(comp.term, v, e, c.f)
		if err != nil || !ok {
			return ok, err
		}
	}
	for _, tv := range l.tupleVars {
		if l.kind == pkClass {
			if !e.bindObject(tv, objBinding{class: l.pred, oid: fact.OID, tuple: fact.Tuple}) {
				return false, nil
			}
		} else {
			if !e.bindValue(tv, fact.Tuple) {
				return false, nil
			}
		}
	}
	return true, nil
}

// matchNegated handles negation: unbound pattern variables range over the
// active domain of their declared types (§2.1), then the literal succeeds
// iff no fact matches.
func (c *evalCtx) matchNegated(l resolvedLit, e *env, yield func(*env) error) error {
	var unbound []adVar
	for _, av := range l.adVars {
		if !e.bound(av.name) {
			unbound = append(unbound, av)
		}
	}
	var enumerate func(i int) error
	enumerate = func(i int) error {
		if i >= len(unbound) {
			err := c.matchPositive(l, c.f, e, func(*env) error { return errStopEnum })
			if err == nil {
				return yield(e) // no fact matches l
			}
			if errors.Is(err, errStopEnum) {
				return nil
			}
			return err
		}
		dom := c.activeDom().values(unbound[i].key)
		m := e.mark()
		for _, v := range dom {
			var err error
			if e.bindValue(unbound[i].name, v) {
				err = enumerate(i + 1)
			}
			e.undo(m)
			if err != nil {
				return err
			}
		}
		return nil
	}
	return enumerate(0)
}

func (c *evalCtx) matchCompare(l resolvedLit, e *env, yield func(*env) error) error {
	left, right := l.args[0], l.args[1]
	if l.pred == "=" && !l.negated {
		// Directional unification: evaluate the evaluable side, match the
		// other as a pattern.
		if !e.evaluable(left) {
			left, right = right, left
			if !e.evaluable(left) {
				return fmt.Errorf("engine: neither side of = is evaluable")
			}
		}
		v, err := evalTerm(left, e, c.f)
		if err != nil {
			return err
		}
		return c.unifyYield(right, v, e, yield)
	}
	lv, err := evalTerm(left, e, c.f)
	if err != nil {
		return err
	}
	rv, err := evalTerm(right, e, c.f)
	if err != nil {
		return err
	}
	holds, err := compareValues(l.pred, lv, rv)
	if err != nil {
		return err
	}
	if l.negated {
		holds = !holds
	}
	if holds {
		return yield(e)
	}
	return nil
}

// unifyYield matches the pattern t against v, the evaluated side of an
// = or a built-in's result, and when they unify yields the extended e;
// it undoes the bindings before it returns.
func (c *evalCtx) unifyYield(t ast.Term, v value.Value, e *env, yield func(*env) error) error {
	m := e.mark()
	defer e.undo(m)
	if ok, err := matchTerm(t, v, e, c.f); err != nil || !ok {
		return err
	}
	return yield(e)
}

func compareValues(op string, l, r value.Value) (bool, error) {
	switch op {
	case "=":
		return value.Equal(l, r), nil
	case "!=":
		return !value.Equal(l, r), nil
	}
	// Ordering comparisons need comparable kinds.
	lk, rk := l.Kind(), r.Kind()
	numericKinds := func(k value.Kind) bool { return k == value.KindInt || k == value.KindReal }
	if lk != rk && !(numericKinds(lk) && numericKinds(rk)) {
		return false, fmt.Errorf("engine: cannot compare %s with %s", lk, rk)
	}
	cmp := value.Compare(l, r)
	switch op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	}
	return false, fmt.Errorf("engine: unknown comparison %q", op)
}

// --- head instantiation -------------------------------------------------

// instantiateHead builds the Δ contributions of one valuation.
func (c *evalCtx) instantiateHead(r *crule, e *env, dplus, dminus *FactSet) error {
	if c.stats != nil {
		c.stats.Firings[r.id]++
	}
	c.emitted++
	h := r.head
	if h.negated {
		return c.instantiateDeletion(r, e, dminus)
	}
	if h.kind == hClass {
		return c.instantiateClassHead(r, e, dplus)
	}
	build := c.buildAssocFact
	if h.kind == hFunc {
		build = c.buildFuncFact
	}
	fact, err := build(h, e)
	if err != nil {
		return err
	}
	if c.reemit || !c.f.Has(fact) {
		dplus.Add(fact)
	}
	return nil
}

func (c *evalCtx) buildFuncFact(h *headSpec, e *env) (Fact, error) {
	var fields []value.Field
	if h.fnArg != nil {
		av, err := evalTerm(h.fnArg, e, c.f)
		if err != nil {
			return Fact{}, err
		}
		fields = append(fields, value.Field{Label: FuncArgLabel, Value: av})
	}
	mv, err := evalTerm(h.fnMember, e, c.f)
	if err != nil {
		return Fact{}, err
	}
	fields = append(fields, value.Field{Label: FuncMemberLabel, Value: mv})
	return Fact{Pred: h.pred, Tuple: value.NewTuple(fields...)}, nil
}

func (c *evalCtx) buildAssocFact(h *headSpec, e *env) (Fact, error) {
	var base value.Tuple
	if h.tupleVar != "" {
		b, _ := e.lookup(h.tupleVar)
		t, ok := b.coerce().(value.Tuple)
		if !ok {
			return Fact{}, fmt.Errorf("engine: head tuple variable %s is not bound to a tuple", h.tupleVar)
		}
		base = t
	}
	for _, comp := range h.comps {
		v, err := evalTerm(comp.term, e, c.f)
		if err != nil {
			return Fact{}, err
		}
		base = base.With(comp.label, v)
	}
	return Fact{Pred: h.pred, Tuple: instance.Project(base, h.eff)}, nil
}

// instantiateClassHead implements positive class heads: bound oids,
// hierarchy oid sharing, value copying, and oid invention with the
// valuation-domain condition of Definition 7.
func (c *evalCtx) instantiateClassHead(r *crule, e *env, dplus *FactSet) error {
	h := r.head
	comps, err := c.headComps(h, e)
	if err != nil {
		return err
	}

	// Locate the source object (tuple variable or copy source). A tuple
	// variable bound to a plain tuple (an association tuple, as in the
	// interesting-pair example `ip(self: X, C) <- pair(C)`) supplies
	// component values without an oid.
	var source *objBinding
	if h.tupleVar != "" {
		if b, ok := e.lookup(h.tupleVar); ok {
			source = c.asObject(b)
			if source == nil {
				if t, isT := b.coerce().(value.Tuple); isT {
					source = &objBinding{tuple: t}
				}
			}
		}
	}
	if source == nil && h.copyFrom != "" {
		if b, ok := e.lookup(h.copyFrom); ok {
			source = c.asObject(b)
		}
	}

	// Determine the oid.
	var oid value.OID
	haveOID := false
	switch {
	case h.selfTerm != nil && (h.selfVar == "" || e.bound(h.selfVar)):
		v, err := evalTerm(h.selfTerm, e, c.f)
		if err != nil {
			return err
		}
		ref, ok := v.(value.Ref)
		if !ok {
			return fmt.Errorf("engine: self argument of %s is not an oid", h.pred)
		}
		oid, haveOID = value.OID(ref), true
	case source != nil && !r.inventive && !source.oid.IsNil():
		oid, haveOID = source.oid, true
	}

	// Assemble the o-value: source values (projected), overridden by the
	// explicit components, overlaid on the object's current value when the
	// oid is known.
	var base value.Tuple
	if haveOID {
		if cur, ok := c.f.HasOID(h.pred, oid); ok {
			base = cur.Tuple
		}
	}
	if source != nil {
		for _, f := range source.tuple.Fields() {
			if _, ok := h.eff.Get(f.Label); ok {
				base = base.With(f.Label, f.Value)
			}
		}
	}
	for _, f := range comps {
		base = base.With(f.label, f.v)
	}
	tuple := instance.Project(base, h.eff)

	if haveOID {
		fact := Fact{Pred: h.pred, IsClass: true, OID: oid, Tuple: tuple}
		// VD condition: suppress when the head is already satisfied. Under
		// the non-inflationary operator the (identical) fact is re-emitted
		// instead, so it survives the step.
		if cur, ok := c.f.HasOID(h.pred, oid); ok && headSatisfiedBy(h, comps, source, cur.Tuple) {
			if c.reemit {
				c.addForOID(r, e, dplus, cur)
			}
			return nil
		}
		c.addForOID(r, e, dplus, fact)
		return nil
	}

	// Invention (Definition 8 point b): suppress when some existing object
	// of the class already satisfies the head with these component values
	// (re-emit it under the non-inflationary operator).
	var buf [8]fixedArg
	fixed := append(buf[:0], comps...)
	if source != nil {
		fixed = fixedBy(fixed, h.eff, source.tuple, comps)
	}
	if cur, ok := firstIn(c.f.lookup(h.pred, h.eff, fixed), !c.reemit, func(f Fact) bool {
		return headSatisfiedBy(h, comps, source, f.Tuple)
	}); ok {
		if c.reemit {
			dplus.Add(cur)
		}
		return nil
	}
	// One fresh oid per valuation-domain element, numbered at rule end.
	c.inventions = append(c.inventions, invention{key: e.key(r.vars), fact: Fact{Pred: h.pred, IsClass: true, Tuple: tuple}})
	return nil
}

// addForOID adds to dplus the o-value the firing of r under e gives an
// oid, unless a firing of this step with a greater valuation key already
// gave that oid one: ⊕ inside one Δ+ keeps one fact per oid, the one of
// the greatest valuation, so the winner never depends on the order the
// body's buckets yielded the firings in (DESIGN §6). Equal keys are one
// valuation of one rule, or firings of different rules, where the later
// rule wins.
func (c *evalCtx) addForOID(r *crule, e *env, dplus *FactSet, fact Fact) {
	k, slot := e.key(r.vars), oidSlot{fact.Pred, fact.OID}
	if won, ok := c.oidWinners[slot]; ok && won > k {
		return
	}
	if c.oidWinners == nil {
		c.oidWinners = map[oidSlot]string{}
	}
	c.oidWinners[slot] = k
	dplus.Add(fact)
}

// oidSlot is one object of one class.
type oidSlot struct {
	pred string
	oid  value.OID
}

// numberInventions gives the inventions rule r left pending one fresh
// oid each, in valuation-key order, and adds them to dplus: an invented
// oid depends on its valuation (Definitions 7–8), not on the order the
// body's buckets yielded it in, so every executor numbers alike.
func (c *evalCtx) numberInventions(r *crule, dplus *FactSet) error {
	slices.SortFunc(c.inventions, func(a, b invention) int {
		if a.key != b.key {
			return strings.Compare(a.key, b.key)
		}
		// Equal keys: a rule without the Definition 7 dedup, or objects
		// keyed by the nil oid.
		return strings.Compare(a.fact.Key(), b.fact.Key())
	})
	for n := 1; len(c.inventions) > 0; n++ {
		fact := c.inventions[0].fact
		c.inventions = c.inventions[1:]
		*c.counter++
		fact.OID = value.OID(*c.counter)
		if c.stats != nil {
			c.stats.Invented++
		}
		c.traceInvent(r, fact.Pred, int64(fact.OID))
		dplus.Add(fact)
		if c.g != nil && n%inRoundCheckInterval == 0 {
			if err := c.p.inRoundCheck(c.g, c.round, fact.Pred, c.factCount, c.invented()); err != nil {
				return err
			}
		}
	}
	return nil
}

// headSatisfiedBy reports whether an existing o-value satisfies the head's
// specified components (and copied source components).
func headSatisfiedBy(h *headSpec, comps []fixedArg, source *objBinding, existing value.Tuple) bool {
	for _, f := range comps {
		got, ok := existing.Get(f.label)
		if !ok || !value.Equal(got, f.v) {
			return false
		}
	}
	return source == nil || agreesOn(h.eff, source.tuple, existing, comps)
}

// asObject resolves a binding to an object, looking a bare oid's
// o-value up in the first class, in name order, that holds it.
func (c *evalCtx) asObject(b binding) *objBinding {
	if b.obj != nil {
		return b.obj
	}
	if r, ok := b.val.(value.Ref); ok {
		oid := value.OID(r)
		for _, p := range c.p.classes {
			if fact, ok := c.f.HasOID(p, oid); ok {
				return &objBinding{class: p, oid: oid, tuple: fact.Tuple}
			}
		}
		return &objBinding{oid: oid}
	}
	return nil
}

// headComps evaluates the head's specified components.
func (c *evalCtx) headComps(h *headSpec, e *env) ([]fixedArg, error) {
	comps := make([]fixedArg, len(h.comps))
	for i, comp := range h.comps {
		v, err := evalTerm(comp.term, e, c.f)
		if err != nil {
			return nil, err
		}
		comps[i] = fixedArg{label: comp.label, v: v}
	}
	return comps, nil
}

// firstIn returns the fact of cs that ok accepts and a walk of its
// predicate meets first, the least in key order; with some set, any will
// do, so it returns the first cs yields. A walk yields key order.
func firstIn(cs candidates, some bool, ok func(Fact) bool) (first Fact, found bool) {
	cs.each(func(f Fact) bool {
		if ok(f) && (!found || f.Key() < first.Key()) {
			first, found = f, true
		}
		return !found || !some && cs.src == nil
	})
	return first, found
}

// instantiateDeletion computes Δ− facts for a negated head: every current
// fact matching the head's bound oid, tuple and components is deleted.
func (c *evalCtx) instantiateDeletion(r *crule, e *env, dminus *FactSet) error {
	h := r.head
	if h.kind == hFunc {
		target, err := c.buildFuncFact(h, e)
		if err != nil {
			return err
		}
		if c.f.Has(target) {
			dminus.Add(target)
		}
		return nil
	}
	comps, err := c.headComps(h, e)
	if err != nil {
		return err
	}
	// What the head fixes: a class head's oid, from self or from a tuple
	// variable bound to an object; a tuple variable's tuple, projected
	// onto the head's type as insertion does; its components.
	var buf [8]fixedArg
	oid := buf[:0]
	var wantTuple value.Tuple
	haveTuple := false
	if h.selfTerm != nil {
		v, err := evalTerm(h.selfTerm, e, c.f)
		if err != nil {
			return err
		}
		if ref, ok := v.(value.Ref); ok {
			oid = append(oid, fixedArg{self: true, v: ref})
		}
	} else if h.tupleVar != "" {
		b, _ := e.lookup(h.tupleVar)
		switch v := b.coerce().(type) {
		case value.Ref:
			if h.kind == hClass {
				oid = append(oid, fixedArg{self: true, v: v})
			}
		case value.Tuple:
			wantTuple, haveTuple = instance.Project(v, h.eff), true
		}
	}
	fixed := fixedBy(append(oid, comps...), h.eff, wantTuple, nil)
	c.f.lookup(h.pred, h.eff, fixed).each(func(fact Fact) bool {
		if admits(oid, fact) && (!haveTuple || value.Equal(fact.Tuple, wantTuple)) && headSatisfiedBy(h, comps, nil, fact.Tuple) {
			dminus.Add(fact)
		}
		return true
	})
	return nil
}

// --- the operators and their fixpoints ----------------------------------

// oneStep applies one step of an operator to f with the given rules and
// returns the next fact set and whether anything changed. Without a base
// it is the one-step inflationary operator of Appendix B:
//
//	VAR' = ((F ⊕ Δ+) − Δ−) ⊕ (F ∩ Δ+ ∩ Δ−)
//
// With one, it is the non-inflationary operator over the extensional
// base E, the DL-style semantics of [Abit88a] that the paper's
// introduction makes rules parametric in:
//
//	F' = (E ⊕ Δ+) − Δ−
//
// Derived facts then persist only while re-derivable from the current
// set; E always persists. Under it the head-satisfiability suppression
// of Definition 7 must not drop facts: a satisfied head re-emits the
// satisfying facts so they survive the step, while oid invention keeps
// its dedup discipline (an object is re-emitted, not re-invented). step
// is the fixpoint round, used by the in-round guard check and trace
// events.
func (p *Program) oneStep(step int, rules []*crule, f, base *FactSet, counter *int64) (*FactSet, bool, error) {
	c := &evalCtx{p: p, f: f, counter: counter, reemit: base != nil, stats: p.stats, g: p.armedGuard(), round: step}
	dplus, dminus := NewFactSet(), NewFactSet()
	if err := c.applyRules(rules, dplus, dminus); err != nil {
		return nil, false, err
	}
	if base != nil {
		next := base.Clone()
		next.Merge(dplus)
		next.Drop(dminus)
		return next, !next.Equal(f), nil
	}
	if dplus.TotalSize() == 0 && dminus.TotalSize() == 0 {
		return f, false, nil
	}
	// keep = F ∩ Δ+ ∩ Δ−: facts both re-derived and deleted in this step
	// that were already present survive.
	keep := dminus.Intersect(dplus).Intersect(f)
	next := f.Clone()
	next.Merge(dplus)
	next.Drop(dminus)
	next.Merge(keep)
	return next, !next.Equal(f), nil
}

// applyRules matches every rule once against c.f and collects the
// firings' Δ+ and Δ−.
func (c *evalCtx) applyRules(rules []*crule, dplus, dminus *FactSet) error {
	for _, r := range rules {
		var err error
		if r.isa != nil {
			err = c.isaPass(r, dplus)
		} else {
			yield := func(e *env) error {
				return c.instantiateHead(r, e, dplus, dminus)
			}
			if r.inventive {
				// Valuation-domain identity (Definition 7): two fact-level
				// matches inducing the same substitution are ONE valuation-
				// domain element — invention fires once per b(r). For non-
				// inventive rules duplicate valuations are harmless (the
				// head fact is identical), so the dedup is skipped.
				seen := map[string]bool{}
				inner := yield
				yield = func(e *env) error {
					k := e.key(r.vars)
					if seen[k] {
						return nil
					}
					seen[k] = true
					return inner(e)
				}
			}
			err = c.matchBody(r.body, 0, newEnv(), yield)
		}
		if err == nil {
			err = c.numberInventions(r, dplus)
		}
		if err != nil {
			return fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	return nil
}

// fixpoint iterates oneStep to convergence: the inflationary operator,
// or with a base the non-inflationary one, whose result is undefined (an
// error) when the sequence never stabilizes. With once set, the first
// step is provably the fixpoint (settlesInOneStep), and no step confirms
// it.
func (p *Program) fixpoint(rules []*crule, f, base *FactSet, counter *int64, once bool) (*FactSet, error) {
	why := "the inflationary semantics does not guarantee termination"
	if base != nil {
		why = "the non-inflationary semantics is undefined when no fixpoint is reached"
	}
	for step := 0; ; step++ {
		if err := p.checkRound(step, f.TotalSize, why); err != nil {
			return nil, err
		}
		p.traceRoundBegin(step)
		start := p.traceNow()
		next, changed, err := p.oneStep(step, rules, f, base, counter)
		if err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundEnd(step, next.TotalSize()-f.TotalSize(), next.TotalSize(), start)
		if !changed || once {
			if err := p.checkLastRound(step, next.TotalSize); err != nil {
				return nil, err
			}
			return next, nil
		}
		f = next
	}
}

// Run evaluates the program over the extensional fact set under the
// deterministic inflationary semantics, stratum by stratum when the
// program is stratified. counter is the oid-invention counter (advanced in
// place). Cancellation comes from Options.Ctx; RunContext overrides it.
func (p *Program) Run(f0 *FactSet, counter *int64) (*FactSet, error) {
	return p.RunContext(p.opts.Ctx, f0, counter)
}

// RunContext is Run under an explicit cancellation context: the context
// and the Options.Budget axes are checked between fixpoint rounds, and
// an abort surfaces as *CanceledError / *BudgetError attributing the
// stratum, round, and resource counts. The input fact set is never
// mutated, so an aborted evaluation leaves the caller's state intact.
func (p *Program) RunContext(ctx context.Context, f0 *FactSet, counter *int64) (*FactSet, error) {
	return p.RunFrom(ctx, 0, f0, counter)
}

// RunFrom is RunContext starting at stratum index from: the strata below
// from are taken as already materialized inside f0, and only the strata
// at index ≥ from are evaluated on top of it. A maintainer's Next uses
// it to recompute the ineligible suffix of a stratification over an
// incrementally maintained prefix; RunFrom(ctx, 0, f0, counter) is
// exactly RunContext. A from beyond the last stratum evaluates nothing
// (the oid counter is still clamped to f0's maximum oid, as every run
// does before its first stratum).
func (p *Program) RunFrom(ctx context.Context, from int, f0 *FactSet, counter *int64) (*FactSet, error) {
	_, f, err := p.runSplit(ctx, from, len(p.strata), f0, counter)
	return f, err
}

// runSplit is RunFrom that also returns the set as it stood before
// stratum split (from ≤ split): a clone of the run's copy, or the result
// itself when split is past the last stratum. A maintainer rebuild
// (NewMaintainer) is one such run, split at its suffix.
func (p *Program) runSplit(ctx context.Context, from, split int, f0 *FactSet, counter *int64) (pre, f *FactSet, err error) {
	p.stats = newStats()
	p.stats.Strata = len(p.strata)
	p.lastFirings = nil
	p.guard = guard.New(ctx, p.opts.Budget, f0.TotalSize())
	p.traceEvalBegin(f0)
	start := p.traceNow()
	pre, f, err = p.runGuarded(from, split, f0, counter)
	if err != nil {
		p.stats.recordAbort(err)
		p.traceAbort(err)
		return nil, nil, err
	}
	p.traceEvalEnd(f, start)
	return pre, f, nil
}

// runGuarded evaluates the strata from on over one copy of f0 under
// the guard runSplit armed, cloning that copy as it stands before
// stratum split.
func (p *Program) runGuarded(from, split int, f0 *FactSet, counter *int64) (pre, f *FactSet, err error) {
	// An upfront check so a canceled context or exceeded deadline aborts
	// even a run with no strata (a rule-free program never reaches a
	// per-round check).
	if g := p.guard; g.Active() {
		if err := g.Check(0, f0.TotalSize, 0); err != nil {
			return nil, nil, err
		}
	}
	if m := int64(f0.MaxOID()); m > *counter {
		*counter = m
	}
	// An input closed under this schema's isa steps lets every isa pass
	// visit only what differs from it (isaPass). Re-emission under the
	// non-inflationary operator needs every isa visit: the full pass.
	noninf := p.opts.NonInflationary
	p.isaBase = nil
	if !hooks.IsaFullPass && !noninf && f0.closed == p.schema {
		p.isaBase = f0
	}
	defer func() { p.isaBase = nil }()
	// The run's one copy of f0: the semi-naive strata grow it in place,
	// and f0 (often a frozen published set) is never written.
	f = f0.Clone()
	// The run's columnar state, made by its first columnar stratum and
	// shared by the rest; the run's result keeps only what it handed over.
	var run *vecRun
	strata, _ := p.plan()
	for i := from; i < len(strata); i++ {
		if i == split {
			pre = f.Clone() // the strata below split, handed over in full
		}
		sp := &strata[i]
		id := i
		if sp.exec == execNonInflationary {
			id = -1 // the whole program, no stratum of it
		}
		p.guard.SetStratum(id)
		p.traceStratumBegin(id, sp.rules, sp.exec.String(), sp.row)
		var err error
		switch sp.exec {
		case execColumnar:
			// Same round structure as the row loop, same results.
			p.stats.SemiNaiveStrata++
			p.stats.VectorizedStrata++
			if run == nil {
				run = &vecRun{p: p, g: p.armedGuard(), dict: colset.NewDict()}
			}
			f, err = p.semiNaiveVectorized(sp.vec, run, f)
		case execSemiNaive:
			p.stats.SemiNaiveStrata++
			f, err = p.semiNaive(sp.rules, f, counter)
		case execNonInflationary:
			f, err = p.fixpoint(sp.rules, f, f0, counter, false)
		default:
			f, err = p.fixpoint(sp.rules, f, nil, counter, sp.once)
		}
		if err != nil {
			return nil, nil, err
		}
		p.traceStratumEnd(id, f)
	}
	if split >= len(strata) {
		pre = f
	}
	// A run over every stratum leaves a result closed under the isa
	// steps: each holding stratum is an inflationary fixpoint, whose last
	// step emitted nothing, or would have (settlesInOneStep), since an
	// isa emission adds a fact f lacks and Δ− holds only facts of f; and
	// no later stratum writes a class the step reads, since a predicate's
	// rules share one stratum. A non-inflationary fixpoint re-emits, so
	// it vouches for no isa step.
	if from == 0 && !noninf {
		f.closed = p.schema
	}
	return pre, f, nil
}

// CheckDenials evaluates the passive constraints (rules with empty heads,
// §4.2) against a fact set and reports every violated denial.
func (p *Program) CheckDenials(f *FactSet) error {
	return p.checkDenials(f, p.denials)
}

// CheckDenialsReading is CheckDenials restricted to the denials an update
// of the changed predicates can newly violate: those whose body reads one
// of them (crule.readsAny) or enumerates the active domain, and, in a
// program Extend built, the denials it added, which no state was checked
// against. Every other denial holds on f whenever it held before the
// update.
func (p *Program) CheckDenialsReading(f *FactSet, changed map[string]bool) error {
	var ds []*crule
	for _, d := range p.denials {
		if p.added(d) || d.universal || d.readsAny(func(pred string) bool { return changed[pred] }) != "" {
			ds = append(ds, d)
		}
	}
	return p.checkDenials(f, ds)
}

func (p *Program) checkDenials(f *FactSet, denials []*crule) error {
	var errs []error
	c := &evalCtx{p: p, f: f, counter: new(int64)}
	for _, d := range denials {
		violated := false
		err := c.matchBody(d.body, 0, newEnv(), func(*env) error {
			violated = true
			return errStopEnum
		})
		if err != nil && !errors.Is(err, errStopEnum) {
			return err
		}
		if violated {
			errs = append(errs, fmt.Errorf("engine: integrity violation: %s", d))
		}
	}
	return errors.Join(errs...)
}

var errStopEnum = errors.New("stop enumeration")

// Answer is the result of a goal: variable names and deduplicated rows of
// their bindings, in deterministic order.
type Answer struct {
	Vars []string
	Rows [][]value.Value
}

// Query evaluates a conjunctive goal against a fact set and returns the
// bindings of the goal's variables.
func (p *Program) Query(f *FactSet, goal []ast.Literal) (*Answer, error) {
	var body []resolvedLit
	for _, g := range goal {
		rl, err := resolveLiteral(p.schema, g)
		if err != nil {
			return nil, err
		}
		body = append(body, rl)
	}
	cr := &crule{src: &ast.Rule{Body: goal}, body: body}
	vt, err := inferVarTypes(p.schema, cr)
	if err != nil {
		return nil, err
	}
	if _, err := orderBody(cr, vt); err != nil {
		return nil, err
	}
	vars := ast.VarSet(goal)
	ans := &Answer{Vars: vars}
	seen := map[string]bool{}
	var keys []string // keys[i] is ans.Rows[i]'s rowKey
	c := &evalCtx{p: p, f: f, counter: new(int64)}
	err = c.matchBody(cr.body, 0, newEnv(), func(e *env) error {
		row := make([]value.Value, len(vars))
		for i, v := range vars {
			if b, ok := e.lookup(v); ok {
				row[i] = b.coerce()
			} else {
				row[i] = value.Null{}
			}
		}
		key := rowKey(row)
		if !seen[key] {
			seen[key] = true
			ans.Rows = append(ans.Rows, row)
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Sort(rowsByKey{ans.Rows, keys})
	return ans, nil
}

// rowKey is an answer row's identity: each value's key, NUL-terminated.
func rowKey(row []value.Value) string {
	var buf [value.KeyBufSize]byte
	k := buf[:0]
	for _, v := range row {
		k = append(value.AppendKey(k, v), 0)
	}
	return string(k)
}

// rowsByKey sorts answer rows by their precomputed keys.
type rowsByKey struct {
	rows [][]value.Value
	keys []string
}

func (r rowsByKey) Len() int           { return len(r.rows) }
func (r rowsByKey) Less(i, j int) bool { return r.keys[i] < r.keys[j] }
func (r rowsByKey) Swap(i, j int) {
	r.rows[i], r.rows[j] = r.rows[j], r.rows[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
}
