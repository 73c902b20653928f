package engine

import (
	"sort"
	"time"

	"logres/internal/guard"
	"logres/internal/obs"
)

// Trace emission helpers. Every evaluation path — the one-step
// operator, row and columnar semi-naive iteration, and the
// non-inflationary operator — reports through these so the event stream
// has one shape regardless of configuration:
//
//	eval.begin
//	  stratum.begin
//	    round.begin
//	    (oid.invent …)        — in numbering order
//	    (rule.fire …)         — per-round firing diffs, rule-id order
//	    round.end             — delta size and new total
//	    (budget …)            — consumption against each armed axis
//	  stratum.end
//	eval.end | abort
//
// Deterministic kinds carry only evaluation-determined payloads, so for
// a fixed program the canonical stream is byte-identical from run to
// run.
//
// The tracer-off fast path is a nil check per call site; no time.Now,
// no allocation.

// tracing reports whether a tracer is attached.
func (p *Program) tracing() bool { return p.opts.Tracer != nil }

// emit sends one event to the attached tracer.
func (p *Program) emit(ev obs.Event) {
	if t := p.opts.Tracer; t != nil {
		t.Event(ev)
	}
}

// traceNow is time.Now gated on tracing, so untraced rounds never read
// the clock for the tracer's benefit.
func (p *Program) traceNow() time.Time {
	if p.tracing() {
		return time.Now()
	}
	return time.Time{}
}

// traceSince converts a traceNow mark into an elapsed duration.
func (p *Program) traceSince(start time.Time) time.Duration {
	if start.IsZero() {
		return 0
	}
	return time.Since(start)
}

// curStratum returns the stratum for event attribution (-1 when strata
// do not apply).
func (p *Program) curStratum() int {
	if p.guard == nil {
		return 0
	}
	return p.guard.Stratum()
}

// traceEvalBegin opens the run's event stream.
func (p *Program) traceEvalBegin(f0 *FactSet) {
	if !p.tracing() {
		return
	}
	p.emit(obs.Event{Kind: obs.KindEvalBegin, Count: len(p.strata), Total: f0.TotalSize()})
}

// traceEvalEnd closes a successful run.
func (p *Program) traceEvalEnd(f *FactSet, start time.Time) {
	if !p.tracing() {
		return
	}
	p.emit(obs.Event{
		Kind:     obs.KindEvalEnd,
		Count:    p.stats.Steps,
		Total:    f.TotalSize(),
		Duration: p.traceSince(start),
	})
}

// traceAbort reports an aborted run, attributing the budget axis when
// the error is a *BudgetError.
func (p *Program) traceAbort(err error) {
	if !p.tracing() {
		return
	}
	st := p.stats
	ev := obs.Event{Kind: obs.KindAbort, Detail: err.Error()}
	if st != nil {
		ev.Axis, ev.Stratum, ev.Round = st.Abort, st.AbortStratum, st.AbortRound
	}
	p.emit(ev)
}

// traceStratumBegin opens one stratum's events; why, when non-nil, is
// what kept the stratum off the columnar kernels.
func (p *Program) traceStratumBegin(stratum int, rules []*crule, mode string, why *reason) {
	if !p.tracing() {
		return
	}
	ev := obs.Event{Kind: obs.KindStratumBegin, Stratum: stratum, Count: len(rules), Detail: mode}
	if why != nil {
		ev.Reason = why.String()
	}
	p.emit(ev)
}

// traceStratumEnd closes one stratum's events.
func (p *Program) traceStratumEnd(stratum int, f *FactSet) {
	if !p.tracing() {
		return
	}
	p.emit(obs.Event{Kind: obs.KindStratumEnd, Stratum: stratum, Total: f.TotalSize()})
}

// traceRoundBegin opens one fixpoint round.
func (p *Program) traceRoundBegin(round int) {
	if !p.tracing() {
		return
	}
	p.emit(obs.Event{Kind: obs.KindRoundBegin, Stratum: p.curStratum(), Round: round})
}

// traceRoundEnd emits the round's firing diffs and closing event, and
// records the round on the stats delta curve. delta is the number of
// facts the round contributed (signed under the general operator),
// total the fact count after the round.
func (p *Program) traceRoundEnd(round, delta, total int, start time.Time) {
	stratum := p.curStratum()
	if p.stats != nil {
		p.stats.DeltaCurve = append(p.stats.DeltaCurve, RoundDelta{
			Stratum: stratum, Round: round, Delta: delta, Total: total,
		})
	}
	if !p.tracing() {
		return
	}
	p.traceFirings(stratum, round)
	p.emit(obs.Event{
		Kind:     obs.KindRoundEnd,
		Stratum:  stratum,
		Round:    round,
		Count:    delta,
		Total:    total,
		Duration: p.traceSince(start),
	})
	p.traceBudget(round, total)
}

// traceFirings diffs the cumulative firing counts against the previous
// round boundary and emits one rule.fire event per rule that fired, in
// rule-id order (deterministic regardless of evaluation order).
func (p *Program) traceFirings(stratum, round int) {
	if p.stats == nil {
		return
	}
	if p.lastFirings == nil {
		p.lastFirings = map[int]int{}
	}
	var ids []int
	for id, n := range p.stats.Firings {
		if n > p.lastFirings[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		n := p.stats.Firings[id]
		p.emit(obs.Event{
			Kind:    obs.KindRuleFire,
			Stratum: stratum,
			Round:   round,
			Rule:    id,
			Count:   n - p.lastFirings[id],
		})
		p.lastFirings[id] = n
	}
}

// traceBudget reports consumption against each armed budget axis at a
// round boundary — the streaming view of what a later *BudgetError
// would attribute.
func (p *Program) traceBudget(round, total int) {
	g := p.guard
	if g == nil {
		return
	}
	b := g.Budget()
	stratum := g.Stratum()
	if max := p.opts.MaxSteps; b.MaxRounds > 0 || max > 0 {
		limit := int64(max)
		if b.MaxRounds > 0 {
			limit = int64(b.MaxRounds)
		}
		p.emit(obs.Event{Kind: obs.KindBudget, Stratum: stratum, Round: round,
			Axis: string(guard.AxisRounds), Count: round + 1, Limit: limit})
	}
	if b.MaxFacts > 0 {
		p.emit(obs.Event{Kind: obs.KindBudget, Stratum: stratum, Round: round,
			Axis: string(guard.AxisFacts), Count: g.Derived(total), Limit: int64(b.MaxFacts)})
	}
	if b.MaxOIDs > 0 {
		p.emit(obs.Event{Kind: obs.KindBudget, Stratum: stratum, Round: round,
			Axis: string(guard.AxisOIDs), Count: p.invented(), Limit: int64(b.MaxOIDs)})
	}
}

// traceInvent reports one invented oid, in numbering order.
func (c *evalCtx) traceInvent(r *crule, pred string, oid int64) {
	if !c.p.tracing() {
		return
	}
	c.p.emit(obs.Event{
		Kind:    obs.KindOIDInvent,
		Stratum: c.p.curStratum(),
		Round:   c.round,
		Rule:    r.id,
		Pred:    pred,
		OID:     oid,
	})
}
