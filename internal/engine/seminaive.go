package engine

import "fmt"

// Semi-naive evaluation. Inside a stratum whose rules are monotone — no
// deletions, no oid invention, no o-value overwrites (class heads), and no
// active-domain enumeration in negations — the inflationary fixpoint
// coincides with the classical least fixpoint, and delta iteration applies:
// each round only joins derivations that use at least one fact discovered
// in the previous round. This is the optimization the ALGRES closure
// operator enables in the paper's prototype; experiment E1 quantifies the
// gap against naive iteration.

// stratumSemiNaiveEligible reports whether delta iteration is sound for
// every rule of the stratum.
func stratumSemiNaiveEligible(stratum []*crule) bool {
	headPreds := map[string]bool{}
	for _, r := range stratum {
		if r.head == nil {
			return false
		}
		headPreds[r.head.pred] = true
	}
	for _, r := range stratum {
		if r.head.negated || r.inventive {
			return false
		}
		if r.head.kind == hClass {
			// Class heads may overwrite o-values through ⊕; keep them on
			// the general operator.
			return false
		}
		for _, l := range r.body {
			if l.negated && len(l.adVars) > 0 {
				return false
			}
		}
		// A rule that reads a data function defined in this stratum sees
		// new facts without a positive literal over them; delta
		// restriction would miss those derivations.
		for _, fn := range ruleFuncReadsAll(r) {
			if headPreds[fn] {
				return false
			}
		}
	}
	return true
}

// semiNaive runs delta iteration over one stratum, growing cur in place:
// cur is the run's private copy of E (runGuarded cloned it).
func (p *Program) semiNaive(stratum []*crule, cur *FactSet, counter *int64) (*FactSet, error) {
	// Round 0: full evaluation of every rule against the initial set.
	p.traceRoundBegin(0)
	start := p.traceNow()
	delta := NewFactSet()
	c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats, g: p.armedGuard()}
	dminus := NewFactSet()
	for _, r := range stratum {
		err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
			return c.instantiateHead(r, e, delta, dminus)
		})
		if err != nil {
			return nil, fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	p.traceRoundEnd(0, delta.TotalSize(), cur.TotalSize(), start)
	for round := 0; delta.TotalSize() > 0; round++ {
		if err := p.checkRound(round, cur.TotalSize, "semi-naive delta iteration"); err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundBegin(round + 1)
		start := p.traceNow()
		cur.Merge(delta)
		next := NewFactSet()
		c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats,
			g: p.armedGuard(), round: round + 1}
		for _, r := range stratum {
			// One pass per body literal position: that literal ranges over
			// the delta, the others over the full current set.
			for pos, l := range r.body {
				if l.kind != pkClass && l.kind != pkAssoc {
					continue
				}
				if l.negated {
					continue
				}
				if delta.Size(l.pred) == 0 {
					continue
				}
				err := c.matchBodyDelta(r.body, 0, pos, delta, newEnv(), func(e *env) error {
					dplus := NewFactSet()
					if err := c.instantiateHead(r, e, dplus, NewFactSet()); err != nil {
						return err
					}
					for _, pred := range dplus.Preds() {
						for _, fact := range dplus.Facts(pred) {
							if !cur.Has(fact) {
								next.Add(fact)
							}
						}
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("%w (in rule %s)", err, r)
				}
			}
		}
		p.traceRoundEnd(round+1, next.TotalSize(), cur.TotalSize(), start)
		delta = next
	}
	return cur, nil
}

// matchBodyDelta is matchBody with the literal at deltaPos restricted to
// the delta fact set.
func (c *evalCtx) matchBodyDelta(body []resolvedLit, i, deltaPos int, delta *FactSet, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	next := func(e2 *env) error {
		return c.matchBodyDelta(body, i+1, deltaPos, delta, e2, yield)
	}
	l := body[i]
	if i == deltaPos && (l.kind == pkClass || l.kind == pkAssoc) && !l.negated {
		return c.matchPositive(l, delta, e, next)
	}
	return c.matchLit(l, e, next)
}
