package logres

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Guardrail tests through the public API: every budget axis aborts a
// divergent module application with a typed error, and the database
// snapshot stays bit-identical to its pre-application state.

const guardSchema = `
classes C = (v: integer);
associations
  SEED = (k: integer);
  N = (v: integer);
`

// A divergent RIDV update: every round derives a new count and invents
// a fresh oid for it, so all four budget axes have something to exhaust
// inside the same diverging stratum.
const divergentModule = `
mode ridv.
rules
  c(self: S, v: 0) <- seed(k: 1).
  c(self: S, v: Y) <- c(v: X), Y = X + 1.
end.
`

func snapshot(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openGuarded opens a database over guardSchema with one seed fact.
func openGuarded(t *testing.T, options ...Option) *Database {
	t.Helper()
	db, err := Open(guardSchema, options...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("mode ridv.\nrules\n  seed(k: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	return db
}

// Every budget axis must abort the divergent module with a *BudgetError
// and leave the saved snapshot bit-identical, under the defaults and on
// the row oracle alike.
func TestBudgetAbortLeavesDatabaseUntouched(t *testing.T) {
	cases := []struct {
		name   string
		budget Budget
		axis   Axis
	}{
		{"rounds", Budget{MaxRounds: 25}, AxisRounds},
		{"facts", Budget{MaxFacts: 60}, AxisFacts},
		{"oids", Budget{MaxOIDs: 20}, AxisOIDs},
		{"deadline", Budget{Timeout: 25 * time.Millisecond}, AxisDeadline},
	}
	for _, leg := range engineLegs() {
		for _, c := range cases {
			t.Run(c.name+"/"+leg.name, func(t *testing.T) {
				db := openGuarded(t, append(leg.opts, WithBudget(c.budget))...)
				before := snapshot(t, db)
				_, err := db.Exec(divergentModule)
				var be *BudgetError
				if !errors.As(err, &be) {
					t.Fatalf("err = %v (%T), want *BudgetError", err, err)
				}
				if be.Axis != c.axis {
					t.Fatalf("axis = %q, want %q", be.Axis, c.axis)
				}
				after := snapshot(t, db)
				if !bytes.Equal(before, after) {
					t.Fatalf("aborted application mutated the database:\nbefore: %s\nafter:  %s", before, after)
				}
			})
		}
	}
}

// Cancellation via WithContext and via the per-call *Context methods
// must abort with a *CanceledError unwrapping to the context cause, DB
// untouched.
func TestCancellationLeavesDatabaseUntouched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("WithContext", func(t *testing.T) {
		db := openGuarded(t)
		before := snapshot(t, db)
		dbCtx, err := Load(bytes.NewReader(before), WithContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		_, err = dbCtx.Exec(divergentModule)
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v (%T), want *CanceledError", err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err does not unwrap to context.Canceled: %v", err)
		}
	})

	t.Run("ExecContext", func(t *testing.T) {
		db := openGuarded(t)
		before := snapshot(t, db)
		_, err := db.ExecContext(ctx, divergentModule)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("ExecContext ignored cancellation: %v", err)
		}
		if after := snapshot(t, db); !bytes.Equal(before, after) {
			t.Fatal("canceled ExecContext mutated the database")
		}
	})

	t.Run("QueryContext", func(t *testing.T) {
		db := openGuarded(t)
		_, err := db.QueryContext(ctx, `?- seed(k: X).`)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("QueryContext ignored cancellation: %v", err)
		}
	})

	t.Run("CallContext", func(t *testing.T) {
		db := openGuarded(t)
		if err := db.Register("module diverge.\n" + divergentModule); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, db)
		_, err := db.CallContext(ctx, "diverge")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CallContext ignored cancellation: %v", err)
		}
		if after := snapshot(t, db); !bytes.Equal(before, after) {
			t.Fatal("canceled CallContext mutated the database")
		}
	})
}

// A cancellation mid-evaluation (not pre-canceled) must also abort and
// leave the database untouched.
func TestMidEvaluationCancellation(t *testing.T) {
	db := openGuarded(t)
	before := snapshot(t, db)
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := db.ExecContext(ctx, divergentModule)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err does not unwrap to context.DeadlineExceeded: %v", err)
	}
	if after := snapshot(t, db); !bytes.Equal(before, after) {
		t.Fatal("deadline-aborted evaluation mutated the database")
	}
}

// A budget abort must not poison the database: the same handle keeps
// answering queries and accepting convergent updates afterwards.
func TestDatabaseUsableAfterAbort(t *testing.T) {
	db := openGuarded(t, WithBudget(Budget{MaxRounds: 25}))
	if _, err := db.Exec(divergentModule); err == nil {
		t.Fatal("divergent module converged")
	}
	ans, err := db.Query(`?- seed(k: X).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("query after abort returned %d rows, want 1", len(ans.Rows))
	}
	if _, err := db.Exec("mode ridv.\nrules\n  seed(k: 2).\nend.\n"); err != nil {
		t.Fatal(err)
	}
}

// The abort error message names the axis and the location so a user can
// tell which bound fired and where.
func TestAbortErrorMessage(t *testing.T) {
	db := openGuarded(t, WithBudget(Budget{MaxFacts: 60}))
	_, err := db.Exec(divergentModule)
	if err == nil {
		t.Fatal("divergent module converged")
	}
	msg := err.Error()
	for _, want := range []string{"fact budget exhausted", "facts derived"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
}

// TestFactsBudgetInBothMaintenanceModes: a commit whose instance derives
// more facts beyond its extension than Budget.MaxFacts allows is
// rejected with a facts-axis *BudgetError whether the instance is
// derived from scratch or maintained (WithIncremental), and the state
// stays as it was. In the unreach case the last round derives nearly
// every fact (99 unreach facts over a closure of one), so only the
// check after the final round sees the overshoot.
func TestFactsBudgetInBothMaintenanceModes(t *testing.T) {
	const schema = `
associations
  NODE = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  UNREACH = (a: integer, b: integer);
`
	const closure = "  tc(src: X, dst: Y) <- edge(src: X, dst: Y).\n" +
		"  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).\n"
	var nodes strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&nodes, "  node(n: %d).\n", i)
	}
	cases := []struct {
		name        string
		limit       int
		rules, data string
	}{
		{"chain", 6, closure,
			"  edge(src: 1, dst: 2). edge(src: 2, dst: 3). edge(src: 3, dst: 4).\n" +
				"  edge(src: 4, dst: 5). edge(src: 5, dst: 6). edge(src: 6, dst: 7).\n"},
		{"unreach", 30,
			closure + "  unreach(a: X, b: Y) <- node(n: X), node(n: Y), not tc(src: X, dst: Y).\n",
			nodes.String() + "  edge(src: 0, dst: 1).\n"},
	}
	for _, inc := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", inc), func(t *testing.T) {
			for _, c := range cases {
				db, err := Open(schema, WithBudget(Budget{MaxFacts: c.limit}), WithIncremental(inc))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.Exec("mode radi.\nrules\n" + c.rules + "end.\n"); err != nil {
					t.Fatal(err)
				}
				_, err = db.Exec("mode ridv.\nrules\n" + c.data + "end.\n")
				var be *BudgetError
				if !errors.As(err, &be) || be.Axis != AxisFacts || be.Limit != int64(c.limit) {
					t.Fatalf("%s: err = %v (%T), want a *BudgetError on the facts axis, limit %d", c.name, err, err, c.limit)
				}
				if n, err := db.Count("tc"); err != nil || n != 0 || db.EDBCount("edge") != 0 {
					t.Fatalf("%s: tc = %d (%v), %d edges after the rejection, want 0 and 0", c.name, n, err, db.EDBCount("edge"))
				}
			}
		})
	}
}

// A call's rounds budget rejects the same commit in both maintenance
// modes. A maintained step counts no rounds, so when the call tightens
// the rounds, oids or time axis the attempt builds its maintainer under
// the call's options instead of stepping: one more edge at the head of a
// 20-edge chain needs more than three rounds of the closure from scratch,
// and both modes reject it on that axis, leaving the epoch and the Save
// bytes as they were.
func TestCallRoundsBudgetInBothMaintenanceModes(t *testing.T) {
	const schema = `
associations
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
`
	var chain strings.Builder
	chain.WriteString("mode ridv.\nrules\n")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&chain, "  edge(src: %d, dst: %d).\n", i, i+1)
	}
	chain.WriteString("end.\n")
	for _, inc := range []bool{false, true} {
		t.Run(fmt.Sprintf("incremental=%v", inc), func(t *testing.T) {
			db, err := Open(schema, WithIncremental(inc))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{
				"mode radi.\nrules\n" +
					"  tc(src: X, dst: Y) <- edge(src: X, dst: Y).\n" +
					"  tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).\nend.\n",
				chain.String(),
			} {
				if _, err := db.Exec(m); err != nil {
					t.Fatal(err)
				}
			}
			var before bytes.Buffer
			if err := db.Save(&before); err != nil {
				t.Fatal(err)
			}
			epoch := db.CommitEpoch()
			_, err = db.Exec("mode ridv.\nrules\n  edge(src: 0, dst: 1).\nend.\n", WithCallBudget(Budget{MaxRounds: 3}))
			var be *BudgetError
			if !errors.As(err, &be) || be.Axis != AxisRounds || be.Limit != 3 {
				t.Fatalf("err = %v (%T), want a *BudgetError on the rounds axis, limit 3", err, err)
			}
			var after bytes.Buffer
			if err := db.Save(&after); err != nil {
				t.Fatal(err)
			}
			if db.CommitEpoch() != epoch || !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("epoch %d → %d, Save bytes equal %v after the rejection", epoch, db.CommitEpoch(), bytes.Equal(before.Bytes(), after.Bytes()))
			}
		})
	}
}
