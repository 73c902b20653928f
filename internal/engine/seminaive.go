package engine

import "fmt"

// Semi-naive evaluation. Inside a stratum where delta iteration is sound
// (semiNaiveSound), each round only joins derivations that use at least
// one fact discovered in the previous round. This is the optimization
// the ALGRES closure operator enables in the paper's prototype; the
// naive loop stays as the reference it is checked against
// (TestSemiNaiveEqualsNaiveProperty). The incremental maintainer runs
// the same delta pass.

// semiNaive runs delta iteration over one stratum, growing cur in place:
// cur is the run's private copy of E (runGuarded cloned it).
func (p *Program) semiNaive(stratum []*crule, cur *FactSet, counter *int64) (*FactSet, error) {
	delta := NewFactSet()
	err := p.deltaRounds(cur.TotalSize, func(round int) (int, error) {
		c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats, g: p.armedGuard(), round: round}
		if round == 0 {
			err := c.applyRules(stratum, delta, nil)
			return delta.TotalSize(), err
		}
		cur.Merge(delta)
		next := NewFactSet()
		// A head already in cur is suppressed by instantiateHead, so next
		// receives exactly the round's new facts. A semi-naive stratum
		// has no class heads, so no invention waits for numbering.
		err := c.deltaPass(stratum, delta, cur, func(r *crule, e *env) error {
			return c.instantiateHead(r, e, next, nil)
		})
		delta = next
		return next.TotalSize(), err
	})
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// deltaRounds drives the rounds of delta iteration for the row loop and
// the columnar kernels alike: round 0 is the full pass, and each later
// round runs while the previous one derived facts. round runs one round
// and reports how many facts it derived; total reports the fact count
// as of the running round's start. Round boundaries, the rounds and
// facts budgets and the stats are kept here.
func (p *Program) deltaRounds(total func() int, round func(int) (int, error)) error {
	p.traceRoundBegin(0)
	start := p.traceNow()
	delta, err := round(0)
	if err != nil {
		return err
	}
	p.traceRoundEnd(0, delta, total(), start)
	r := 1
	for ; delta > 0; r++ {
		if err := p.checkRound(r-1, total, "semi-naive delta iteration"); err != nil {
			return err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundBegin(r)
		start := p.traceNow()
		if delta, err = round(r); err != nil {
			return err
		}
		p.traceRoundEnd(r, delta, total(), start)
	}
	// The final round merged the facts the one before it derived.
	return p.checkLastRound(r-1, total)
}

// deltaPass runs one delta-restricted pass over rules: for every rule
// and every positive predicate literal with facts in delta, it hands
// yield the valuations with that literal over delta and the others
// over view. A delta literal whose arguments need no earlier binding is
// enumerated first; that changes the order of the valuations, not the
// valuations (negation is bound; comparisons and built-ins unify bound
// outputs).
func (c *evalCtx) deltaPass(rules []*crule, delta, view *FactSet, yield func(*crule, *env) error) error {
	for _, r := range rules {
		emit := func(e *env) error { return yield(r, e) }
		for pos, l := range r.body {
			if l.kind != pkClass && l.kind != pkAssoc || l.negated || delta.Size(l.pred) == 0 {
				continue
			}
			var err error
			if allTermsEvaluableOrPattern(l, func(string) bool { return false }) {
				err = c.matchPositive(l, delta, newEnv(), func(e *env) error {
					return c.matchBodyMixed(r.body, 0, pos, nil, view, e, emit)
				})
			} else {
				err = c.matchBodyMixed(r.body, 0, pos, delta, view, newEnv(), emit)
			}
			if err != nil {
				return fmt.Errorf("%w (in rule %s)", err, r)
			}
		}
	}
	return nil
}

// matchBodyMixed walks body from position i: every positive predicate
// literal matches view but the one at pos, which matches delta, or is
// skipped when delta is nil because the caller bound it already.
// Comparisons, built-ins and negations evaluate as usual.
func (c *evalCtx) matchBodyMixed(body []resolvedLit, i, pos int, delta, view *FactSet, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	next := func(e2 *env) error {
		return c.matchBodyMixed(body, i+1, pos, delta, view, e2, yield)
	}
	l := body[i]
	switch {
	case i == pos && delta == nil:
		return next(e)
	case i == pos:
		return c.matchPositive(l, delta, e, next)
	case (l.kind == pkClass || l.kind == pkAssoc) && !l.negated:
		return c.matchPositive(l, view, e, next)
	}
	return c.matchLit(l, e, next)
}
