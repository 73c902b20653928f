package algres

import (
	"context"
	"fmt"
	"time"

	"logres/internal/guard"
	"logres/internal/obs"
)

// The liberal closure operator. ALGRES exposes a fixpoint construct whose
// body is an arbitrary algebra expression over the database; the paper
// ("the very liberal structure of the closure operation in ALGRES makes
// it possible to change the semantics of rules very easily") relies on it
// to prototype the various rule semantics. Step receives the current
// database and returns the relations to merge; Fixpoint iterates to
// convergence.

// Opts configures closure evaluation. The zero value is the serial
// unbounded default.
type Opts struct {
	// MaxSteps bounds fixpoint iteration (0 = the package default, 1e6).
	MaxSteps int
	// Ctx cancels the closure between rounds; aborts surface as
	// *guard.CanceledError. nil means no cancellation.
	Ctx context.Context
	// MaxFacts bounds the tuples inserted across all rounds
	// (0 = unlimited); exhaustion surfaces as *guard.BudgetError.
	MaxFacts int
	// Timeout bounds the closure's wall-clock time (0 = unlimited); the
	// deadline is armed when the closure starts.
	Timeout time.Duration
	// Tracer receives one closure.round event per fixpoint round (nil =
	// no tracing; the off path is a nil check per round).
	Tracer obs.Tracer
}

// roundGuard is the per-closure guardrail state shared by Fixpoint and
// the semi-naive compiler loop; checks run at round granularity, so the
// zero-budget fast path costs one branch per round.
type roundGuard struct {
	ctx      context.Context
	deadline time.Time
	maxFacts int
	timeout  time.Duration
	inserted int
}

func newRoundGuard(opts Opts) *roundGuard {
	g := &roundGuard{ctx: opts.Ctx, maxFacts: opts.MaxFacts, timeout: opts.Timeout}
	if opts.Timeout > 0 {
		g.deadline = time.Now().Add(opts.Timeout)
	}
	return g
}

// check enforces cancellation, deadline, and the fact budget at the top
// of round i. Closures have no strata, so aborts attribute stratum -1.
func (g *roundGuard) check(i int) error {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return &guard.CanceledError{Stratum: -1, Round: i, Facts: g.inserted, Err: err}
		}
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return &guard.BudgetError{Axis: guard.AxisDeadline, Limit: int64(g.timeout), Stratum: -1, Round: i, Facts: g.inserted}
	}
	if g.maxFacts > 0 && g.inserted > g.maxFacts {
		return &guard.BudgetError{Axis: guard.AxisFacts, Limit: int64(g.maxFacts), Stratum: -1, Round: i, Facts: g.inserted}
	}
	return nil
}

// rounds builds the rounds-axis abort error.
func (g *roundGuard) rounds(limit int, detail string) *guard.BudgetError {
	return &guard.BudgetError{Axis: guard.AxisRounds, Limit: int64(limit), Stratum: -1, Round: limit, Facts: g.inserted, Detail: detail}
}

// StepFunc computes one closure step: given the current database it
// returns new contents for some relations (unioned into the database).
type StepFunc func(db *DB) (map[string]*Relation, error)

// Fixpoint iterates step until the database stops changing, up to
// maxSteps (0 = 1e6).
func Fixpoint(db *DB, step StepFunc, maxSteps int) (*DB, error) {
	return FixpointOpts(db, step, Opts{MaxSteps: maxSteps})
}

// FixpointOpts is Fixpoint configured by an options struct; the context
// and budget axes are checked between rounds and surface as the same
// typed errors the rule engine produces.
func FixpointOpts(db *DB, step StepFunc, opts Opts) (*DB, error) {
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	g := newRoundGuard(opts)
	cur := db.Clone()
	for i := 0; i < maxSteps; i++ {
		if err := g.check(i); err != nil {
			return nil, err
		}
		var start time.Time
		if opts.Tracer != nil {
			start = time.Now()
		}
		updates, err := step(cur)
		if err != nil {
			return nil, err
		}
		before := g.inserted
		changed := false
		for name, add := range updates {
			dst, ok := cur.Get(name)
			if !ok {
				dst = NewRelation(add.Attrs()...)
				cur.Set(name, dst)
			}
			for _, t := range add.Tuples() {
				if dst.Insert(t) {
					changed = true
					g.inserted++
				}
			}
		}
		if opts.Tracer != nil {
			opts.Tracer.Event(obs.Event{
				Kind:     obs.KindClosureRound,
				Stratum:  -1,
				Round:    i,
				Count:    g.inserted - before,
				Total:    g.inserted,
				Duration: time.Since(start),
			})
		}
		if !changed {
			return cur, nil
		}
	}
	return nil, g.rounds(maxSteps, "the closure did not converge")
}

// TransitiveClosure is the classic closure instance: given a binary
// relation over (from, to), it computes its transitive closure.
func TransitiveClosure(edges *Relation, from, to string) (*Relation, error) {
	return TransitiveClosureOpts(edges, from, to, Opts{})
}

// TransitiveClosureOpts is TransitiveClosure under opts' context and
// budget.
func TransitiveClosureOpts(edges *Relation, from, to string, opts Opts) (*Relation, error) {
	if !edges.HasAttr(from) || !edges.HasAttr(to) {
		return nil, fmt.Errorf("algres: closure: missing attributes %q/%q", from, to)
	}
	base, err := Project(edges, from, to)
	if err != nil {
		return nil, err
	}
	db := NewDB()
	db.Set("tc", base.Clone())
	db.Set("edge", base)
	result, err := FixpointOpts(db, func(db *DB) (map[string]*Relation, error) {
		tc, _ := db.Get("tc")
		e, _ := db.Get("edge")
		// tc(from, to) ⋈ edge(to=from', to') — rename to line up the join.
		mid := Rename(tc, map[string]string{from: "$a", to: "$m"})
		step := Rename(e, map[string]string{from: "$m", to: "$b"})
		joined := Join(mid, step)
		proj, err := Project(joined, "$a", "$b")
		if err != nil {
			return nil, err
		}
		next := Rename(proj, map[string]string{"$a": from, "$b": to})
		return map[string]*Relation{"tc": next}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	tc, _ := result.Get("tc")
	return tc, nil
}
