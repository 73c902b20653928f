package engine

import (
	"context"

	"logres/internal/guard"
	"logres/internal/obs"
)

// Budget bounds an evaluation along four axes: fixpoint rounds, facts
// derived beyond the initial extension, invented oids, and wall-clock
// time. The zero value imposes only the DefaultMaxRounds round bound.
type Budget = guard.Budget

// BudgetError reports that an evaluation exhausted one budget axis,
// carrying the stratum, round, and resource counts at the abort.
type BudgetError = guard.BudgetError

// CanceledError reports a context cancellation; it unwraps to
// context.Canceled / context.DeadlineExceeded.
type CanceledError = guard.CanceledError

// PanicError reports a panic converted into an error by a panic-safe
// evaluation boundary.
type PanicError = guard.PanicError

// ConflictError reports that an optimistic concurrent module application
// with retries disabled lost its commit, naming both colliding footprints.
type ConflictError = guard.ConflictError

// Footprint is the predicate-level access set concurrent commits
// validate against each other.
type Footprint = guard.Footprint

// Axis names one budget dimension in a *BudgetError.
type Axis = guard.Axis

// The budget axes a *BudgetError names.
const (
	AxisRounds   = guard.AxisRounds
	AxisFacts    = guard.AxisFacts
	AxisOIDs     = guard.AxisOIDs
	AxisDeadline = guard.AxisDeadline
	AxisRetries  = guard.AxisRetries
)

// inactiveGuard backs evaluation paths that run outside Run (Query,
// CheckDenials): a guard with no context and no budget.
var inactiveGuard = guard.New(context.Background(), Budget{}, 0)

// curGuard returns the run's guard (never nil).
func (p *Program) curGuard() *guard.Guard {
	if p.guard == nil {
		return inactiveGuard
	}
	return p.guard
}

// armedGuard returns the run's guard only when a cancellation or budget
// axis is armed — the evalCtx in-round check is wired to this, so the
// unguarded hot path carries a nil and skips the check entirely.
func (p *Program) armedGuard() *guard.Guard {
	if g := p.guard; g != nil && g.Active() {
		return g
	}
	return nil
}

// inRoundCheckInterval is the fact-iteration granularity of the
// cooperative in-round guard check: every N candidate facts enumerated
// by rule matching, the armed guard's cancellation/deadline/fact/oid
// axes are re-checked, so a single cross-product round cannot overrun
// its deadline by more than N iterations. A variable so tests can
// lower it.
var inRoundCheckInterval = 1 << 12

// inRoundCheck polls the armed guard g mid-round, on the row loop and
// in the kernels' emit alike. The caller reports the fact and oid
// counts, both coarse: the row loop counts the frozen base extension
// plus its context's head instantiations (facts derived mid-round live
// in private deltas the base set cannot see, and duplicates are
// counted), the kernels the set as of the round's start plus the
// valuations emitted — overestimates never more than one interval
// stale; the oids include the inventions still waiting for
// numberInventions. A trip emits a guard.check trace event before
// surfacing the typed abort error.
func (p *Program) inRoundCheck(g *guard.Guard, round int, pred string, facts func() int, invented int) error {
	err := g.Check(round, facts, invented)
	if err != nil && p.tracing() {
		p.emit(obs.Event{
			Kind:    obs.KindGuardCheck,
			Stratum: g.Stratum(),
			Round:   round,
			Pred:    pred,
			Detail:  err.Error(),
		})
	}
	return err
}

// factCount and invented are the counts the row loop's in-round check
// reports (inRoundCheck).
func (c *evalCtx) factCount() int { return c.f.TotalSize() + c.emitted }

func (c *evalCtx) invented() int {
	n := len(c.inventions)
	if c.stats != nil {
		n += c.stats.Invented
	}
	return n
}

func (p *Program) invented() int {
	if p.stats != nil {
		return p.stats.Invented
	}
	return 0
}

// maxRounds is the run's round bound: Budget.MaxRounds when set, else
// DefaultMaxRounds.
func (p *Program) maxRounds() int {
	if m := p.opts.Budget.MaxRounds; m > 0 {
		return m
	}
	return DefaultMaxRounds
}

// checkRound enforces the guard between fixpoint rounds: the rounds
// bound always, the cancellation/deadline/fact/oid axes only when a
// context or budget is armed — one extra branch per round on the serial
// fast path. total reports the current fact count (read only when an
// axis needs it); detail is the caller's semantics note for the rounds
// axis.
func (p *Program) checkRound(round int, total func() int, detail string) error {
	g := p.curGuard()
	if max := p.maxRounds(); round >= max {
		return g.RoundsExceeded(round, max, total(), p.invented(), detail)
	}
	if !g.Active() {
		return nil
	}
	return g.Check(round, total, p.invented())
}

// checkLastRound enforces the fact axis once after a stratum's final
// round, whose facts no checkRound sees.
func (p *Program) checkLastRound(round int, total func() int) error {
	return p.curGuard().CheckFacts(round, total, p.invented())
}
