package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"logres/internal/value"
)

// Tests of the evaluation guardrails: divergent programs must abort with
// typed, attributable errors under every budget axis.

// A semi-naive-eligible divergent program: the counting rule derives one
// new fact per round forever.
const countingSchema = `associations N = (v: integer);`
const countingRules = `
n(v: 0).
n(v: Y) <- n(v: X), Y = X + 1.
`

// A divergent inventive program: every round derives a new value and
// invents a fresh oid for it. Inventive strata run on the one-step
// operator.
const inventiveSchema = `
classes C = (v: integer);
associations SEED = (k: integer);
`
const inventiveRules = `
c(self: S, v: 0) <- seed(k: 1).
c(self: S, v: Y) <- c(v: X), Y = X + 1.
`

// guardOpts sets the deprecated Workers/Shards options to their one
// accepted value, so the guarded runs also hold that value to the
// unset behaviour. A budget that leaves rounds unarmed gets a round
// bound no divergent test reaches before its own axis trips.
func guardOpts(b Budget) Options {
	if b.MaxRounds == 0 {
		b.MaxRounds = 1 << 30
	}
	return Options{SemiNaive: true, Workers: 1, Shards: 1, Budget: b}
}

// Every budget axis must stop the counting program with a *BudgetError
// naming the axis.
func TestDivergenceAbortsUnderEveryAxis(t *testing.T) {
	cases := []struct {
		name   string
		budget Budget
		axis   Axis
	}{
		{"rounds", Budget{MaxRounds: 20}, AxisRounds},
		{"facts", Budget{MaxFacts: 40}, AxisFacts},
		{"deadline", Budget{Timeout: 20 * time.Millisecond}, AxisDeadline},
	}
	for _, c := range cases {
		t.Run(c.name+"/workers=1/shards=1", func(t *testing.T) {
			p, err := tryBuild(countingSchema, countingRules, guardOpts(c.budget))
			if err != nil {
				t.Fatal(err)
			}
			counter := int64(0)
			_, err = p.Run(NewFactSet(), &counter)
			if err == nil {
				t.Fatal("divergent program terminated")
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v (%T), want *BudgetError", err, err)
			}
			if be.Axis != c.axis {
				t.Fatalf("axis = %q, want %q (err: %v)", be.Axis, c.axis, err)
			}
			if st := p.LastStats(); st.Abort != string(c.axis) {
				t.Fatalf("Stats.Abort = %q, want %q", st.Abort, c.axis)
			}
		})
	}
}

// The invented-oid axis must stop the inventive program; the abort error
// carries the oid count for attribution.
func TestDivergenceAbortsOnOIDBudget(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		p, err := tryBuild(inventiveSchema, inventiveRules, guardOpts(Budget{MaxOIDs: 25}))
		if err != nil {
			t.Fatal(err)
		}
		schema := schemaOf(t, inventiveSchema)
		edb := seedEDB(t, schema, `seed(k: 1).`)
		counter := int64(0)
		_, err = p.Run(edb, &counter)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v (%T), want *BudgetError", err, err)
		}
		if be.Axis != AxisOIDs {
			t.Fatalf("axis = %q, want oids", be.Axis)
		}
		if be.Invented <= 25 {
			t.Fatalf("Invented = %d, want > 25", be.Invented)
		}
	})
}

// One inventive round over a cross product: the oids wait for their
// numbers until the rule's enumeration ends, so the in-round check
// counts them as they are found, and the round aborts within one check
// interval of the oid or fact bound, before any oid is numbered.
func TestInventiveRoundInRoundBudgetAbort(t *testing.T) {
	saved := inRoundCheckInterval
	inRoundCheckInterval = 3
	defer func() { inRoundCheckInterval = saved }()

	const schema = `
classes PAIR = (a: integer, b: integer);
associations N = (v: integer);
`
	edb := NewFactSet()
	for i := 0; i < 10; i++ {
		edb.Add(Fact{Pred: "n", Tuple: value.NewTuple(value.Field{Label: "v", Value: value.Int(int64(i))})})
	}
	const bound = 10
	for _, c := range []struct {
		budget Budget
		axis   Axis
	}{
		{Budget{MaxOIDs: bound}, AxisOIDs},
		{Budget{MaxFacts: bound}, AxisFacts},
	} {
		p, err := tryBuild(schema, `pair(a: X, b: Y) <- n(v: X), n(v: Y).`, guardOpts(c.budget))
		if err != nil {
			t.Fatal(err)
		}
		counter := int64(0)
		_, err = p.Run(edb, &counter)
		var be *BudgetError
		if !errors.As(err, &be) || be.Axis != c.axis || be.Round != 0 {
			t.Fatalf("err = %v, want a %s budget abort in round 0", err, c.axis)
		}
		got := be.Invented
		if c.axis == AxisFacts {
			got = be.Facts
		}
		if got <= bound || got > bound+inRoundCheckInterval {
			t.Fatalf("%s abort at %d, want within one interval above %d", c.axis, got, bound)
		}
		if counter != 0 || p.LastStats().Invented != 0 {
			t.Fatalf("%s abort numbered oids: counter %d, invented %d", c.axis, counter, p.LastStats().Invented)
		}
	}
}

// The non-inflationary oscillator has no fixpoint: the rounds budget
// must trip with the undefined-semantics note, and the facts/deadline
// axes must trip it too.
func TestOscillatorAborts(t *testing.T) {
	schemaSrc := `
associations
  SEED = (k: integer);
  FLIP = (k: integer);
  N = (v: integer);
`
	// The oscillator alone adds no new facts after round 1; the counting
	// rule keeps the extension growing so facts/deadline have something
	// to measure while flip flips.
	rulesSrc := `
flip(k: X) <- seed(k: X), not flip(k: X).
n(v: 0).
n(v: Y) <- n(v: X), Y = X + 1.
`
	schema := schemaOf(t, schemaSrc)
	cases := []struct {
		name   string
		budget Budget
		axis   Axis
	}{
		{"rounds", Budget{MaxRounds: 30}, AxisRounds},
		{"facts", Budget{MaxFacts: 50}, AxisFacts},
		{"deadline", Budget{Timeout: 20 * time.Millisecond}, AxisDeadline},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := guardOpts(c.budget)
			opts.NonInflationary = true
			p, err := tryBuild(schemaSrc, rulesSrc, opts)
			if err != nil {
				t.Fatal(err)
			}
			edb := seedEDB(t, schema, `seed(k: 7).`)
			counter := int64(0)
			_, err = p.Run(edb, &counter)
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v (%T), want *BudgetError", err, err)
			}
			if be.Axis != c.axis {
				t.Fatalf("axis = %q, want %q", be.Axis, c.axis)
			}
		})
	}
}

// Cancellation aborts the evaluation with a *CanceledError that unwraps
// to the context's cause.
func TestCancellationAborts(t *testing.T) {
	t.Run("canceled/workers=1", func(t *testing.T) {
		p, err := tryBuild(countingSchema, countingRules, guardOpts(Budget{}))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		counter := int64(0)
		_, err = p.RunContext(ctx, NewFactSet(), &counter)
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v (%T), want *CanceledError", err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err does not unwrap to context.Canceled: %v", err)
		}
		if st := p.LastStats(); st.Abort != "canceled" {
			t.Fatalf("Stats.Abort = %q, want canceled", st.Abort)
		}
	})
	t.Run("deadline/workers=1", func(t *testing.T) {
		p, err := tryBuild(countingSchema, countingRules, guardOpts(Budget{}))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		counter := int64(0)
		_, err = p.RunContext(ctx, NewFactSet(), &counter)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err does not unwrap to context.DeadlineExceeded: %v", err)
		}
	})
}

// An inactive guard must not change results: the same program run with
// and without an (unexhausted) budget computes identical fact sets.
func TestGuardrailsPreserveResults(t *testing.T) {
	plain, err := tryBuild(edgeSchema, closureRules, Options{SemiNaive: true})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := tryBuild(edgeSchema, closureRules, guardOpts(Budget{MaxFacts: 1 << 20, MaxOIDs: 1 << 20, Timeout: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := int64(0), int64(0)
	f1, err := plain.Run(chainEdgeFacts(20), &c1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := budgeted.Run(chainEdgeFacts(20), &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Equal(f2) {
		t.Fatal("an unexhausted budget changed the result")
	}
}
