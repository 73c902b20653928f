// Package guard implements evaluation guardrails: cancellation contexts,
// resource budgets (rounds, derived facts, invented oids, wall-clock),
// and the typed abort errors every evaluator surfaces. LOGRES programs
// with invented oids are not guaranteed to terminate and the
// non-inflationary semantics can oscillate (§3 / Appendix B of the
// paper), so a runaway evaluation must fail bounded, attributable, and
// side-effect-free; this package is the bounded-and-attributable half,
// the module layer's clone discipline is the side-effect-free half.
//
// The guard is checked at round granularity: one branch per fixpoint
// round on the serial fast path when no context or budget is set, so the
// guardrails cost nothing unless they are armed.
package guard

import (
	"context"
	"fmt"
	"time"
)

// Budget bounds an evaluation along five independent axes. The zero
// value of an axis leaves it unbounded (rounds fall back to the
// evaluator's default step bound, retries to the concurrent committer's
// default).
type Budget struct {
	// MaxRounds bounds the number of one-step applications (or
	// semi-naive rounds) per fixpoint.
	MaxRounds int
	// MaxFacts bounds the facts derived beyond the initial extension.
	MaxFacts int
	// MaxOIDs bounds the oids invented across the whole evaluation.
	MaxOIDs int
	// Timeout bounds the wall-clock time of one evaluation; the deadline
	// is armed when the evaluation starts.
	Timeout time.Duration
	// MaxRetries bounds the commit retries of one optimistic concurrent
	// module application; the last retry holds the write lock and cannot
	// conflict. With retries disabled a conflict surfaces as a
	// *ConflictError rather than a *BudgetError (the conflict, not the
	// budget, is the cause).
	MaxRetries int
}

// Tighten combines two budgets into the stricter one per axis: a zero
// axis defers to the other budget, two armed axes keep the smaller
// bound. This is how a per-call budget override composes with the
// database-wide budget — a call can only narrow what the database
// allows, never widen it.
func (b Budget) Tighten(o Budget) Budget {
	r := b
	if o.MaxRounds > 0 && (r.MaxRounds == 0 || o.MaxRounds < r.MaxRounds) {
		r.MaxRounds = o.MaxRounds
	}
	if o.MaxFacts > 0 && (r.MaxFacts == 0 || o.MaxFacts < r.MaxFacts) {
		r.MaxFacts = o.MaxFacts
	}
	if o.MaxOIDs > 0 && (r.MaxOIDs == 0 || o.MaxOIDs < r.MaxOIDs) {
		r.MaxOIDs = o.MaxOIDs
	}
	if o.Timeout > 0 && (r.Timeout == 0 || o.Timeout < r.Timeout) {
		r.Timeout = o.Timeout
	}
	if o.MaxRetries > 0 && (r.MaxRetries == 0 || o.MaxRetries < r.MaxRetries) {
		r.MaxRetries = o.MaxRetries
	}
	return r
}

// Axis names one budget dimension in a *BudgetError.
type Axis string

const (
	AxisRounds   Axis = "rounds"
	AxisFacts    Axis = "facts"
	AxisOIDs     Axis = "oids"
	AxisDeadline Axis = "deadline"
	AxisRetries  Axis = "retries"
)

// BudgetError reports that an evaluation exhausted one budget axis. It
// carries the position of the abort (stratum, round) and the resource
// counts at that point, so every bound violation is attributable.
type BudgetError struct {
	// Axis is the exhausted dimension.
	Axis Axis
	// Limit is the bound that was exceeded: rounds, facts, oids, or
	// nanoseconds for the deadline axis.
	Limit int64
	// Stratum is the evaluation stratum at the abort (-1 when strata do
	// not apply: non-inflationary evaluation).
	Stratum int
	// Round is the fixpoint round at the abort.
	Round int
	// Facts is the number of facts derived beyond the initial extension.
	Facts int
	// Invented is the number of oids invented.
	Invented int
	// Detail is an optional semantics note (e.g. the undefinedness of a
	// non-converging non-inflationary program).
	Detail string
}

func (e *BudgetError) Error() string {
	var what string
	switch e.Axis {
	case AxisRounds:
		what = fmt.Sprintf("no fixpoint within %d rounds", e.Limit)
	case AxisFacts:
		what = fmt.Sprintf("fact budget exhausted (%d facts derived, limit %d)", e.Facts, e.Limit)
	case AxisOIDs:
		what = fmt.Sprintf("invented-oid budget exhausted (%d oids invented, limit %d)", e.Invented, e.Limit)
	case AxisDeadline:
		what = fmt.Sprintf("wall-clock budget exhausted (%s)", time.Duration(e.Limit))
	default:
		what = fmt.Sprintf("budget axis %q exhausted", e.Axis)
	}
	s := fmt.Sprintf("evaluation aborted: %s at %s; %d facts derived, %d oids invented",
		what, location(e.Stratum, e.Round), e.Facts, e.Invented)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// CanceledError reports that an evaluation was canceled through its
// context. It unwraps to the context's error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded both
// work.
type CanceledError struct {
	Stratum  int
	Round    int
	Facts    int
	Invented int
	// Err is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Err error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("evaluation canceled at %s; %d facts derived, %d oids invented: %v",
		location(e.Stratum, e.Round), e.Facts, e.Invented, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// PanicError reports a panic converted into an error by a panic-safe
// evaluation boundary (the module application shield).
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the recovery point.
	Stack []byte
	// Context locates the panic (e.g. the rule being evaluated).
	Context string
}

func (e *PanicError) Error() string {
	if e.Context != "" {
		return fmt.Sprintf("evaluation panicked in %s: %v", e.Context, e.Value)
	}
	return fmt.Sprintf("evaluation panicked: %v", e.Value)
}

func location(stratum, round int) string {
	if stratum < 0 {
		return fmt.Sprintf("round %d", round)
	}
	return fmt.Sprintf("stratum %d, round %d", stratum, round)
}

// Guard is the per-evaluation check state: the context, the armed
// budget, the deadline, and the stratum under evaluation.
type Guard struct {
	ctx      context.Context
	budget   Budget
	deadline time.Time
	baseline int // fact count of the initial extension
	stratum  int
	active   bool
}

// New arms a guard: the deadline starts now, derived-fact counting
// starts from baseline. A nil ctx means no cancellation.
func New(ctx context.Context, b Budget, baseline int) *Guard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &Guard{ctx: ctx, budget: b, baseline: baseline}
	if b.Timeout > 0 {
		g.deadline = time.Now().Add(b.Timeout)
	}
	g.active = ctx.Done() != nil || b.Timeout > 0 || b.MaxFacts > 0 || b.MaxOIDs > 0
	return g
}

// Active reports whether any axis beyond the rounds bound is armed;
// when false, Check is never called and the guard costs one branch per
// round.
func (g *Guard) Active() bool { return g.active }

// SetStratum records the stratum under evaluation for abort attribution
// (-1 when strata do not apply).
func (g *Guard) SetStratum(i int) { g.stratum = i }

// Stratum returns the stratum recorded by SetStratum.
func (g *Guard) Stratum() int { return g.stratum }

// Budget returns the effective budget the guard enforces — after any
// per-call tightening — so consumption can be reported against it.
func (g *Guard) Budget() Budget { return g.budget }

// Derived converts a total fact count into the derived-beyond-baseline
// count the fact axis meters.
func (g *Guard) Derived(total int) int { return g.derived(total) }

// Check enforces the cancellation, deadline, oid and fact axes at round
// granularity. facts is called lazily — only when the fact axis is
// armed or an abort needs its count for attribution.
func (g *Guard) Check(round int, facts func() int, invented int) error {
	if err := g.ctx.Err(); err != nil {
		return &CanceledError{Stratum: g.stratum, Round: round, Facts: g.derived(facts()), Invented: invented, Err: err}
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return &BudgetError{Axis: AxisDeadline, Limit: int64(g.budget.Timeout), Stratum: g.stratum,
			Round: round, Facts: g.derived(facts()), Invented: invented}
	}
	if g.budget.MaxOIDs > 0 && invented > g.budget.MaxOIDs {
		return &BudgetError{Axis: AxisOIDs, Limit: int64(g.budget.MaxOIDs), Stratum: g.stratum,
			Round: round, Facts: g.derived(facts()), Invented: invented}
	}
	if g.budget.MaxFacts > 0 {
		if d := g.derived(facts()); d > g.budget.MaxFacts {
			return &BudgetError{Axis: AxisFacts, Limit: int64(g.budget.MaxFacts), Stratum: g.stratum,
				Round: round, Facts: d, Invented: invented}
		}
	}
	return nil
}

// RoundsExceeded builds the rounds-axis abort error. total is the
// current total fact count; detail is the caller's semantics note.
func (g *Guard) RoundsExceeded(round, limit, total, invented int, detail string) *BudgetError {
	return &BudgetError{Axis: AxisRounds, Limit: int64(limit), Stratum: g.stratum,
		Round: round, Facts: g.derived(total), Invented: invented, Detail: detail}
}

func (g *Guard) derived(total int) int {
	if d := total - g.baseline; d > 0 {
		return d
	}
	return 0
}
