package engine

// Non-inflationary semantics. The paper's introduction makes modules and
// databases "parametric with respect to the semantics of the rules they
// support (e.g. inflationary vs non-inflationary)" and describes only the
// inflationary variant in detail; the non-inflationary counterpart (the
// DL-style semantics of [Abit88a] the paper cites) is implemented here:
//
//	F0 = E
//	F_{i+1} = (E ⊕ Δ+(R, F_i)) − Δ−(R, F_i)
//
// Derived facts persist only while re-derivable from the current state;
// the extensional base E always persists. The semantics is *partial*: if
// the sequence never stabilizes the result is undefined (an error). Under
// this operator the head-satisfiability suppression of Definition 7 must
// not drop facts — a satisfied head re-emits the satisfying facts so they
// survive the step — while oid invention keeps its dedup discipline (an
// object is re-emitted, not re-invented).

// oneStepNoninf applies the non-inflationary operator once. step is the
// fixpoint round, used to attribute trace events and in-round aborts.
func (p *Program) oneStepNoninf(step int, rules []*crule, e, f *FactSet, counter *int64) (*FactSet, bool, error) {
	c := &evalCtx{p: p, f: f, counter: counter, reemit: true, stats: p.stats,
		g: p.armedGuard(), round: step}
	dplus, dminus := NewFactSet(), NewFactSet()
	if err := c.applyRules(rules, dplus, dminus); err != nil {
		return nil, false, err
	}
	next := e.Clone()
	next.Merge(dplus)
	next.Drop(dminus)
	return next, !next.Equal(f), nil
}

// runNoninflationary iterates the non-inflationary operator to a fixpoint
// over the whole program (stratification does not apply: the operator is
// non-monotone by construction).
func (p *Program) runNoninflationary(e *FactSet, counter *int64) (*FactSet, error) {
	if m := int64(e.MaxOID()); m > *counter {
		*counter = m
	}
	f := e.Clone()
	var rules []*crule
	for _, stratum := range p.strata {
		rules = append(rules, stratum...)
	}
	p.traceStratumBegin(-1, rules, execNonInflationary.String(), nil)
	for step := 0; ; step++ {
		if err := p.checkRound(step, f.TotalSize, "the non-inflationary semantics is undefined when no fixpoint is reached"); err != nil {
			return nil, err
		}
		p.traceRoundBegin(step)
		start := p.traceNow()
		next, changed, err := p.oneStepNoninf(step, rules, e, f, counter)
		if err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundEnd(step, next.TotalSize()-f.TotalSize(), next.TotalSize(), start)
		if !changed {
			p.traceStratumEnd(-1, next)
			return next, nil
		}
		f = next
	}
}
