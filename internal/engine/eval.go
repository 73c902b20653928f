package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"logres/internal/ast"
	"logres/internal/guard"
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

// matchPositive joins a positive predicate literal against its extension.
// When some component argument is already evaluable under the current
// bindings, the lookup goes through the fact set's component hash index
// instead of scanning the whole extension.
func (c *evalCtx) matchPositive(l resolvedLit, source *FactSet, e *env, yield func(*env) error) error {
	facts := c.candidateFacts(l, source, e)
	for _, fact := range facts {
		c.steps++
		if c.g != nil && c.steps%inRoundCheckInterval == 0 {
			if err := c.inRoundCheck(l); err != nil {
				return err
			}
		}
		e2 := e.clone()
		ok, err := c.matchFact(l, fact, e2)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := yield(e2); err != nil {
			return err
		}
	}
	return nil
}

// candidateFacts narrows the facts a literal can match: an evaluable self
// argument resolves through the oid map, an evaluable component argument
// through the component index; otherwise the full (cached, sorted)
// extension is scanned.
func (c *evalCtx) candidateFacts(l resolvedLit, source *FactSet, e *env) []Fact {
	bound := boundSet(e)
	if l.selfTerm != nil && evaluable(l.selfTerm, bound) {
		if v, err := evalTerm(l.selfTerm, e, c.f); err == nil {
			if ref, ok := v.(value.Ref); ok {
				if fact, ok := source.HasOID(l.pred, value.OID(ref)); ok {
					return []Fact{fact}
				}
				return nil
			}
		}
	}
	for _, comp := range l.comps {
		if !evaluable(comp.term, bound) {
			continue
		}
		if _, isWild := comp.term.(ast.Wildcard); isWild {
			continue
		}
		v, err := evalTerm(comp.term, e, c.f)
		if err != nil {
			continue
		}
		return source.FactsByComponent(l.pred, comp.label, v)
	}
	return source.Facts(l.pred)
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
	var enumerate func(i int, e2 *env) error
	enumerate = func(i int, e2 *env) error {
		if i >= len(unbound) {
			absent, err := c.noFactMatches(l, e2)
			if err != nil {
				return err
			}
			if absent {
				return yield(e2)
			}
			return nil
		}
		dom := c.activeDom().values(unbound[i].key)
		for _, v := range dom {
			e3 := e2.clone()
			if !e3.bindValue(unbound[i].name, v) {
				continue
			}
			if err := enumerate(i+1, e3); err != nil {
				return err
			}
		}
		return nil
	}
	return enumerate(0, e)
}

func (c *evalCtx) noFactMatches(l resolvedLit, e *env) (bool, error) {
	for _, fact := range c.candidateFacts(l, c.f, e) {
		c.steps++
		if c.g != nil && c.steps%inRoundCheckInterval == 0 {
			if err := c.inRoundCheck(l); err != nil {
				return false, err
			}
		}
		probe := e.clone()
		ok, err := c.matchFact(l, fact, probe)
		if err != nil {
			return false, err
		}
		if ok {
			return false, nil
		}
	}
	return true, nil
}

func (c *evalCtx) matchCompare(l resolvedLit, e *env, yield func(*env) error) error {
	left, right := l.args[0], l.args[1]
	if l.pred == "=" && !l.negated {
		// Directional unification: evaluate the evaluable side, match the
		// other as a pattern.
		bound := boundSet(e)
		switch {
		case evaluable(left, bound):
			lv, err := evalTerm(left, e, c.f)
			if err != nil {
				return err
			}
			e2 := e.clone()
			ok, err := matchTerm(right, lv, e2, c.f)
			if err != nil {
				return err
			}
			if ok {
				return yield(e2)
			}
			return nil
		case evaluable(right, bound):
			rv, err := evalTerm(right, e, c.f)
			if err != nil {
				return err
			}
			e2 := e.clone()
			ok, err := matchTerm(left, rv, e2, c.f)
			if err != nil {
				return err
			}
			if ok {
				return yield(e2)
			}
			return nil
		default:
			return fmt.Errorf("engine: neither side of = is evaluable")
		}
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

func boundSet(e *env) map[string]bool {
	out := make(map[string]bool, len(e.m))
	for k := range e.m {
		out[k] = true
	}
	return out
}

// --- head instantiation -------------------------------------------------

// headEffect is one head firing: a fact to add or facts to delete.
type headEffect struct {
	add Fact
	ok  bool // false when the VD condition suppressed the firing
}

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
	switch h.kind {
	case hFunc:
		fact, err := c.buildFuncFact(h, e)
		if err != nil {
			return err
		}
		if c.reemit || !c.f.Has(fact) {
			dplus.Add(fact)
		}
		return nil
	case hAssoc:
		fact, err := c.buildAssocFact(h, e)
		if err != nil {
			return err
		}
		if c.reemit || !c.f.Has(fact) {
			dplus.Add(fact)
		}
		return nil
	}
	return c.instantiateClassHead(r, e, dplus)
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
	// Evaluate the specified components.
	comps := make([]value.Field, 0, len(h.comps))
	for _, comp := range h.comps {
		v, err := evalTerm(comp.term, e, c.f)
		if err != nil {
			return err
		}
		comps = append(comps, value.Field{Label: comp.label, Value: v})
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
		base = base.With(f.Label, f.Value)
	}
	tuple := instance.Project(base, h.eff)

	if haveOID {
		fact := Fact{Pred: h.pred, IsClass: true, OID: oid, Tuple: tuple}
		// VD condition: suppress when the head is already satisfied. Under
		// the non-inflationary operator the (identical) fact is re-emitted
		// instead, so it survives the step.
		if cur, ok := c.f.HasOID(h.pred, oid); ok && headSatisfiedBy(h, comps, source, cur.Tuple) {
			if c.reemit {
				dplus.Add(cur)
			}
			return nil
		}
		dplus.Add(fact)
		return nil
	}

	// Invention (Definition 8 point b): suppress when some existing object
	// of the class already satisfies the head with these component values
	// (re-emit it under the non-inflationary operator).
	for _, fact := range c.f.Facts(h.pred) {
		if headSatisfiedBy(h, comps, source, fact.Tuple) {
			if c.reemit {
				dplus.Add(fact)
			}
			return nil
		}
	}
	// One fresh oid per valuation-domain element.
	*c.counter++
	oid = value.OID(*c.counter)
	if c.stats != nil {
		c.stats.Invented++
	}
	c.traceInvent(r, h.pred, int64(oid))
	dplus.Add(Fact{Pred: h.pred, IsClass: true, OID: oid, Tuple: tuple})
	return nil
}

// headSatisfiedBy reports whether an existing o-value satisfies the head's
// specified components (and copied source components).
func headSatisfiedBy(h *headSpec, comps []value.Field, source *objBinding, existing value.Tuple) bool {
	for _, f := range comps {
		got, ok := existing.Get(f.Label)
		if !ok || !value.Equal(got, f.Value) {
			return false
		}
	}
	if source != nil {
		specified := map[string]bool{}
		for _, f := range comps {
			specified[f.Label] = true
		}
		for _, f := range source.tuple.Fields() {
			if specified[f.Label] {
				continue
			}
			if _, inEff := h.eff.Get(f.Label); !inEff {
				continue
			}
			got, ok := existing.Get(f.Label)
			if !ok || !value.Equal(got, f.Value) {
				return false
			}
		}
	}
	return true
}

// asObject resolves a binding to an object, looking the o-value up in the
// fact set when only the oid is known.
func (c *evalCtx) asObject(b binding) *objBinding {
	if b.obj != nil {
		return b.obj
	}
	if r, ok := b.val.(value.Ref); ok {
		oid := value.OID(r)
		for _, p := range c.f.Preds() {
			if fact, ok := c.f.HasOID(p, oid); ok {
				return &objBinding{class: p, oid: oid, tuple: fact.Tuple}
			}
		}
		return &objBinding{oid: oid}
	}
	return nil
}

// instantiateDeletion computes Δ− facts for a negated head: every current
// fact matching the head's bound oid/components is deleted.
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
	// Evaluate specified components.
	comps := make([]value.Field, 0, len(h.comps))
	for _, comp := range h.comps {
		v, err := evalTerm(comp.term, e, c.f)
		if err != nil {
			return err
		}
		comps = append(comps, value.Field{Label: comp.label, Value: v})
	}
	var wantOID value.OID
	haveOID := false
	if h.kind == hClass {
		switch {
		case h.selfTerm != nil:
			v, err := evalTerm(h.selfTerm, e, c.f)
			if err != nil {
				return err
			}
			if ref, ok := v.(value.Ref); ok {
				wantOID, haveOID = value.OID(ref), true
			}
		case h.tupleVar != "":
			if b, ok := e.lookup(h.tupleVar); ok {
				if obj := c.asObject(b); obj != nil {
					wantOID, haveOID = obj.oid, true
				}
			}
		}
	}
	var wantTuple value.Tuple
	haveTuple := false
	if h.kind == hAssoc && h.tupleVar != "" {
		if b, ok := e.lookup(h.tupleVar); ok {
			if t, isT := b.coerce().(value.Tuple); isT {
				wantTuple, haveTuple = instance.Project(t, h.eff), true
			}
		}
	}
	for _, fact := range c.f.Facts(h.pred) {
		if haveOID && fact.OID != wantOID {
			continue
		}
		if haveTuple && !value.Equal(fact.Tuple, wantTuple) {
			continue
		}
		matches := true
		for _, f := range comps {
			got, ok := fact.Tuple.Get(f.Label)
			if !ok || !value.Equal(got, f.Value) {
				matches = false
				break
			}
		}
		if matches {
			dminus.Add(fact)
		}
	}
	return nil
}

// --- the one-step inflationary operator and fixpoints --------------------

// oneStep applies the one-step inflationary operator of Appendix B to f
// with the given rules:
//
//	VAR' = ((F ⊕ Δ+) − Δ−) ⊕ (F ∩ Δ+ ∩ Δ−)
//
// It returns the next fact set and whether anything changed. step is
// the fixpoint round, used by the in-round guard check and trace
// events.
func (p *Program) oneStep(step int, rules []*crule, f *FactSet, counter *int64) (*FactSet, bool, error) {
	c := &evalCtx{p: p, f: f, counter: counter, stats: p.stats, g: p.armedGuard(), round: step}
	dplus, dminus := NewFactSet(), NewFactSet()
	for _, r := range rules {
		yield := func(e *env) error {
			return c.instantiateHead(r, e, dplus, dminus)
		}
		if r.inventive {
			// Valuation-domain identity (Definition 7): two fact-level
			// matches inducing the same substitution are ONE valuation-
			// domain element — invention fires once per b(r). For non-
			// inventive rules duplicate valuations are harmless (the head
			// fact is identical), so the dedup is skipped.
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
		if err := c.matchBody(r.body, 0, newEnv(), yield); err != nil {
			return nil, false, fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	if dplus.TotalSize() == 0 && dminus.TotalSize() == 0 {
		return f, false, nil
	}
	// keep = F ∩ Δ+ ∩ Δ−: facts both re-derived and deleted in this step
	// that were already present survive.
	keep := NewFactSet()
	for _, p := range dminus.Preds() {
		for _, fact := range dminus.Facts(p) {
			if f.Has(fact) && dplus.Has(fact) {
				keep.Add(fact)
			}
		}
	}
	next := f.Clone()
	next.Merge(dplus)
	for _, p := range dminus.Preds() {
		for _, fact := range dminus.Facts(p) {
			next.Remove(fact)
		}
	}
	next.Merge(keep)
	return next, !next.Equal(f), nil
}

// fixpoint iterates oneStep to convergence.
func (p *Program) fixpoint(rules []*crule, f *FactSet, counter *int64) (*FactSet, error) {
	for step := 0; ; step++ {
		if err := p.checkRound(step, f.TotalSize, "the inflationary semantics does not guarantee termination"); err != nil {
			return nil, err
		}
		p.traceRoundBegin(step)
		start := p.traceNow()
		next, changed, err := p.oneStep(step, rules, f, counter)
		if err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundEnd(step, next.TotalSize()-f.TotalSize(), next.TotalSize(), start)
		if !changed {
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
// at index ≥ from are evaluated on top of it. The incremental maintainer
// uses it to recompute the ineligible suffix of a stratification over an
// incrementally maintained prefix; RunFrom(ctx, 0, f0, counter) is
// exactly RunContext. A from beyond the last stratum evaluates nothing
// (the oid counter is still clamped to f0's maximum oid, as every run
// does before its first stratum).
func (p *Program) RunFrom(ctx context.Context, from int, f0 *FactSet, counter *int64) (*FactSet, error) {
	p.stats = newStats()
	p.stats.Strata = len(p.strata)
	p.lastFirings = nil
	p.guard = guard.New(ctx, p.opts.Budget, f0.TotalSize())
	p.traceEvalBegin(f0)
	start := p.traceNow()
	f, err := p.runGuarded(from, f0, counter)
	if err != nil {
		p.stats.recordAbort(err)
		p.traceAbort(err)
		return f, err
	}
	p.traceEvalEnd(f, start)
	return f, nil
}

func (p *Program) runGuarded(from int, f0 *FactSet, counter *int64) (*FactSet, error) {
	// An upfront check so a canceled context or exceeded deadline aborts
	// even a run with no strata (a rule-free program never reaches a
	// per-round check).
	if g := p.guard; g.Active() {
		if err := g.Check(0, f0.TotalSize, 0); err != nil {
			return nil, err
		}
	}
	if p.opts.NonInflationary {
		p.guard.SetStratum(-1)
		return p.runNoninflationary(f0, counter)
	}
	if m := int64(f0.MaxOID()); m > *counter {
		*counter = m
	}
	// The run's one copy of f0: the semi-naive strata grow it in place,
	// and f0 (often a frozen published set) is never written.
	f := f0.Clone()
	for i := from; i < len(p.strata); i++ {
		stratum := p.strata[i]
		p.guard.SetStratum(i)
		var err error
		if p.opts.SemiNaive && stratumSemiNaiveEligible(stratum) {
			p.stats.SemiNaiveStrata++
			if vs, why := p.vecPlan(stratum); vs != nil {
				// Columnar path: same round structure, same results.
				p.stats.VectorizedStrata++
				p.traceStratumBegin(i, stratum, "semi-naive (vectorized)", nil)
				f, err = p.semiNaiveVectorized(vs, f, counter)
			} else {
				p.traceStratumBegin(i, stratum, "semi-naive", why)
				f, err = p.semiNaive(stratum, f, counter)
			}
		} else {
			var why *rowReason
			if p.tracing() {
				_, why = p.vecPlan(stratum)
			}
			p.traceStratumBegin(i, stratum, "one-step inflationary", why)
			f, err = p.fixpoint(stratum, f, counter)
		}
		if err != nil {
			return nil, err
		}
		p.traceStratumEnd(i, f)
	}
	return f, nil
}

// CheckDenials evaluates the passive constraints (rules with empty heads,
// §4.2) against a fact set and reports every violated denial.
func (p *Program) CheckDenials(f *FactSet) error {
	return p.checkDenials(f, p.denials)
}

// CheckDenialsReading is CheckDenials restricted to the denials an update
// of the changed predicates can newly violate: those whose body reads one
// of them (see readsAny) or enumerates the active domain. Every other
// denial holds on f whenever it held before the update.
func (p *Program) CheckDenialsReading(f *FactSet, changed map[string]bool) error {
	var ds []*crule
	for _, d := range p.denials {
		if enumeratesActiveDomain(d) || readsAny(d, changed) != "" {
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
