package logres

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logres/internal/engine"
	"logres/internal/hooks"
)

// ---------------------------------------------------------------------------
// Property test: concurrent application of disjoint modules is equivalent to
// serial application in either order (bit-identical Save output), on every
// engine leg; conflicting modules serialize to one of the two serial
// orders.
// ---------------------------------------------------------------------------

const concurrentSchema = `
associations
  P0 = (x: integer);
  P1 = (x: integer);
  P2 = (x: integer);
  P3 = (x: integer);
  P4 = (x: integer);
  P5 = (x: integer);
`

// randModule builds a random data-variant module confined to the given
// predicate pool: a handful of facts plus, sometimes, a copy rule between
// two pool predicates.
func randModule(rng *rand.Rand, pool []string) string {
	var b strings.Builder
	b.WriteString("mode ridv.\nrules\n")
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		fmt.Fprintf(&b, "  %s(x: %d).\n", pool[rng.Intn(len(pool))], rng.Intn(50))
	}
	if len(pool) > 1 && rng.Intn(2) == 0 {
		from := rng.Intn(len(pool))
		to := (from + 1 + rng.Intn(len(pool)-1)) % len(pool)
		fmt.Fprintf(&b, "  %s(x: X) <- %s(x: X).\n", pool[to], pool[from])
	}
	b.WriteString("end.\n")
	return b.String()
}

func saveBytes(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serialState opens a fresh database on the row oracle and applies the
// modules one after the other, returning the Save snapshot.
func serialState(t *testing.T, mods ...string) []byte {
	t.Helper()
	db, err := Open(concurrentSchema, rowOracle()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mods {
		if _, err := db.Exec(m); err != nil {
			t.Fatal(err)
		}
	}
	return saveBytes(t, db)
}

// concurrentState opens a fresh database and applies the two modules from
// two goroutines, returning the Save snapshot and the metrics registry
// for conflict accounting.
func concurrentState(t *testing.T, opts []Option, a, b string) ([]byte, *Metrics) {
	t.Helper()
	m := NewMetrics()
	db, err := Open(concurrentSchema, append([]Option{WithMetrics(m)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, src := range []string{a, b} {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			if _, err := db.Exec(src); err != nil {
				errs <- err
			}
		}(src)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return saveBytes(t, db), m
}

// The serial reference states come from the row oracle; the concurrent
// side runs on every engine leg.
func TestConcurrentDisjointEquivalentToSerial(t *testing.T) {
	preds := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for li, leg := range engineLegs() {
		rng := rand.New(rand.NewSource(int64(97 + li)))
		for trial := 0; trial < 5; trial++ {
			// Split the predicates into two disjoint pools.
			perm := rng.Perm(len(preds))
			var poolA, poolB []string
			for i, p := range perm {
				if i < 3 {
					poolA = append(poolA, preds[p])
				} else {
					poolB = append(poolB, preds[p])
				}
			}
			a, b := randModule(rng, poolA), randModule(rng, poolB)

			ab := serialState(t, a, b)
			ba := serialState(t, b, a)
			if !bytes.Equal(ab, ba) {
				t.Fatalf("trial %d: disjoint serial orders differ\nA:\n%s\nB:\n%s", trial, a, b)
			}
			got, m := concurrentState(t, leg.opts, a, b)
			if !bytes.Equal(got, ab) {
				t.Fatalf("%s trial %d: concurrent state differs from serial\nA:\n%s\nB:\n%s",
					leg.name, trial, a, b)
			}
			// Disjoint footprints must commit without a single conflict.
			if n := m.Counter("logres_module_conflicts_total").Value(); n != 0 {
				t.Fatalf("%s trial %d: %d conflicts on disjoint modules\nA:\n%s\nB:\n%s",
					leg.name, trial, n, a, b)
			}
		}
	}
}

func TestConcurrentConflictingSerializes(t *testing.T) {
	preds := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for li, leg := range engineLegs() {
		rng := rand.New(rand.NewSource(int64(31 + li)))
		for trial := 0; trial < 5; trial++ {
			// Overlapping pools: both modules may read and write the
			// two shared predicates.
			perm := rng.Perm(len(preds))
			shared := []string{preds[perm[0]], preds[perm[1]]}
			poolA := append([]string{preds[perm[2]], preds[perm[3]]}, shared...)
			poolB := append([]string{preds[perm[4]], preds[perm[5]]}, shared...)
			a, b := randModule(rng, poolA), randModule(rng, poolB)

			ab := serialState(t, a, b)
			ba := serialState(t, b, a)
			got, _ := concurrentState(t, leg.opts, a, b)
			if !bytes.Equal(got, ab) && !bytes.Equal(got, ba) {
				t.Fatalf("%s trial %d: concurrent state matches neither serial order\nA:\n%s\nB:\n%s",
					leg.name, trial, a, b)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Conflict and retry mechanics.
// ---------------------------------------------------------------------------

// execLocked applies src as the retry budget's last attempt does: under
// the write lock from snapshot to commit (hooks.LockedApply). A test's
// ConcurrentPreCommit hook commits its competing writes this way, so
// they cannot conflict and do not re-enter the hook.
func execLocked(t *testing.T, db *Database, src string) {
	t.Helper()
	hooks.LockedApply.Store(true)
	defer hooks.LockedApply.Store(false)
	if _, err := db.Exec(src); err != nil {
		t.Error(err)
	}
}

// TestConflictRetrySucceeds forces exactly one conflict by committing a
// write to the predicate the application writes in the first attempt's
// validation window, then lets the retry land.
func TestConflictRetrySucceeds(t *testing.T) {
	m := NewMetrics()
	db, err := Open(concurrentSchema, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = func(attempt int) {
		if attempt == 0 {
			execLocked(t, db, "mode ridv.\nrules p1(x: 99).\nend.\n")
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	if _, err := db.Exec(`
mode ridv.
rules p1(x: 1).
end.
`); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if n := db.EDBCount("p1"); n != 2 {
		t.Fatalf("p1 count = %d, want the competing write and the retried one", n)
	}
	if n := m.Counter("logres_module_conflicts_total").Value(); n != 1 {
		t.Fatalf("conflicts = %d, want 1", n)
	}
	if n := m.Counter("logres_module_retries_total").Value(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if n := m.Counter("logres_module_commits_total").Value(); n != 2 {
		t.Fatalf("commits = %d, want 2 (the competing write and the retried one)", n)
	}
}

// TestDisjointSerialWriteDoesNotConflict: a write committed under the
// write lock (the retry budget's last attempt) records its real write
// set, so one landing in an optimistic attempt's validation window on a
// predicate the attempt neither reads nor writes costs no conflict.
func TestDisjointSerialWriteDoesNotConflict(t *testing.T) {
	m := NewMetrics()
	db, err := Open(concurrentSchema, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = func(int) {
		execLocked(t, db, "mode ridv.\nrules p0(x: 99).\nend.\n")
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	if _, err := db.Exec("mode ridv.\nrules p1(x: 1).\nend.\n"); err != nil {
		t.Fatal(err)
	}
	if n := m.Counter("logres_module_conflicts_total").Value(); n != 0 {
		t.Fatalf("conflicts = %d, want 0", n)
	}
	if db.EDBCount("p0") != 1 || db.EDBCount("p1") != 1 {
		t.Fatalf("p0/p1 = %d/%d, want 1/1", db.EDBCount("p0"), db.EDBCount("p1"))
	}
}

// TestExecEvaluatesOutsideWriteLock: Exec holds no lock between its
// snapshot and its commit. While one Exec is parked in that window, a
// disjoint Exec from another goroutine commits, and then both land.
func TestExecEvaluatesOutsideWriteLock(t *testing.T) {
	db, err := Open(concurrentSchema)
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	hooks.ConcurrentPreCommit = func(int) {
		if first.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("mode ridv.\nrules p0(x: 1).\nend.\n")
		done <- err
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("Exec committed (err = %v) without reaching the window between evaluation and commit", err)
	}
	other := make(chan error, 1)
	go func() {
		_, err := db.Exec("mode ridv.\nrules p1(x: 2).\nend.\n")
		other <- err
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a disjoint Exec waited for the parked one")
		close(release)
		<-other
		<-done
		return
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if db.EDBCount("p0") != 1 || db.EDBCount("p1") != 1 {
		t.Fatalf("p0/p1 = %d/%d, want 1/1", db.EDBCount("p0"), db.EDBCount("p1"))
	}
}

// TestRetryExhaustionReturnsConflictError disables retries and checks
// that a plain Exec losing its validation returns the typed error,
// carrying both footprints, and leaves the state untouched (with the
// default budget, TestConflictRetrySucceeds, the same Exec commits).
func TestRetryExhaustionReturnsConflictError(t *testing.T) {
	db, err := Open(concurrentSchema, WithMaxRetries(-1))
	if err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = func(int) {
		execLocked(t, db, "mode ridv.\nrules p1(x: 99).\nend.\n")
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	_, err = db.Exec(`
mode ridv.
rules p1(x: 1).
end.
`)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConflictError", err)
	}
	// The competitor records its real write set, so the conflict names
	// the predicate both wrote and the error renders both footprints.
	if ce.Pred != "p1" {
		t.Fatalf("conflict pred = %q", ce.Pred)
	}
	if ce.Theirs.Universal || len(ce.Theirs.Writes) != 1 || ce.Theirs.Writes[0] != "p1" {
		t.Fatalf("theirs = %+v, want writes=[p1]", ce.Theirs)
	}
	for _, want := range []string{"mine:", "theirs:", "writes=[p1]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// The failed application must not have leaked any facts: p1 holds
	// only the competitor's.
	if n := db.EDBCount("p1"); n != 1 {
		t.Fatalf("p1 holds %d facts, want only the competitor's", n)
	}
}

// TestFlightRecorderDumpsOnRetryExhaustion — retry exhaustion is an abort
// like any budget trip: the flight recorder must dump its ring on it.
func TestFlightRecorderDumpsOnRetryExhaustion(t *testing.T) {
	rec := NewFlightRecorder(64)
	var dump bytes.Buffer
	rec.SetDumpOnAbort(&dump)
	db, err := Open(concurrentSchema, WithMaxRetries(-1), WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = func(int) {
		execLocked(t, db, "mode ridv.\nrules p1(x: 99).\nend.\n")
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	_, err = db.Exec(`
mode ridv.
rules p1(x: 1).
end.
`)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ConflictError", err)
	}
	if dump.Len() == 0 {
		t.Fatal("flight recorder did not dump on retry exhaustion")
	}
	for _, want := range []string{"abort", "retries"} {
		if !strings.Contains(dump.String(), want) {
			t.Fatalf("dump missing %q:\n%s", want, dump.String())
		}
	}
}

// TestCanceledBackoffReturnsCanceledError: cancellation during the retry
// backoff surfaces the usual typed *CanceledError.
func TestCanceledBackoffReturnsCanceledError(t *testing.T) {
	db, err := Open(concurrentSchema)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooks.ConcurrentPreCommit = func(int) {
		// Force a conflict, then cancel: the retry backoff must notice.
		execLocked(t, db, "mode ridv.\nrules p1(x: 99).\nend.\n")
		cancel()
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	_, err = db.ExecContext(ctx, `
mode ridv.
rules p1(x: 1).
end.
`)
	var canceled *CanceledError
	if !errors.As(err, &canceled) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
}

// TestCommitEpochAdvances: every state-changing commit (locked or
// optimistic) bumps the epoch; reads do not.
func TestCommitEpochAdvances(t *testing.T) {
	db, err := Open(concurrentSchema)
	if err != nil {
		t.Fatal(err)
	}
	e0 := db.CommitEpoch()
	execLocked(t, db, "mode ridv.\nrules p0(x: 1).\nend.\n")
	if db.CommitEpoch() != e0+1 {
		t.Fatalf("locked commit epoch = %d, want %d", db.CommitEpoch(), e0+1)
	}
	if _, err := db.Exec(`
mode ridv.
rules p1(x: 1).
end.
`); err != nil {
		t.Fatal(err)
	}
	if db.CommitEpoch() != e0+2 {
		t.Fatalf("optimistic commit epoch = %d, want %d", db.CommitEpoch(), e0+2)
	}
	if _, err := db.Query(`?- p0(x: X).`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`
goal
  ?- p0(x: X).
end.
`); err != nil {
		t.Fatal(err)
	}
	if db.CommitEpoch() != e0+2 {
		t.Fatalf("reads advanced the epoch to %d", db.CommitEpoch())
	}
	if db.commitLogWindow() <= 0 {
		t.Fatal("commit log has no retention window")
	}
}

// TestApplyCallOptionsRoundsCoupleToRoundBound covers the rounds axis
// of per-call budgets: it lowers the database's round bound
// (Budget.MaxRounds, else engine.DefaultMaxRounds), never raises it.
func TestApplyCallOptionsRoundsCoupleToRoundBound(t *testing.T) {
	// bound is the round bound a run enforces.
	bound := func(o engine.Options) int {
		if o.Budget.MaxRounds > 0 {
			return o.Budget.MaxRounds
		}
		return engine.DefaultMaxRounds
	}
	base := engine.Options{Budget: Budget{MaxRounds: 10}}
	if got := applyCallOptions(base, []CallOption{WithCallBudget(Budget{MaxRounds: 3})}); bound(got) != 3 {
		t.Fatalf("stricter rounds did not lower the round bound: %d", bound(got))
	}
	if got := applyCallOptions(base, []CallOption{WithCallBudget(Budget{MaxRounds: 20})}); bound(got) != 10 {
		t.Fatalf("looser rounds changed the round bound: %d", bound(got))
	}
	if got := applyCallOptions(engine.Options{}, []CallOption{WithCallBudget(Budget{MaxRounds: 7})}); bound(got) != 7 {
		t.Fatalf("unbounded base did not adopt the rounds bound: %d", bound(got))
	}
	if got := applyCallOptions(engine.Options{}, []CallOption{WithCallBudget(Budget{MaxRounds: engine.DefaultMaxRounds + 1})}); bound(got) != engine.DefaultMaxRounds {
		t.Fatalf("looser rounds widened the default round bound: %d", bound(got))
	}
	if got := applyCallOptions(base, nil); bound(got) != 10 {
		t.Fatalf("no options changed the round bound: %d", bound(got))
	}
	// The budget itself still tightens per axis.
	got := applyCallOptions(engine.Options{Budget: Budget{MaxRounds: 5}},
		[]CallOption{WithCallBudget(Budget{MaxRounds: 9, MaxRetries: 2})})
	if got.Budget.MaxRounds != 5 || got.Budget.MaxRetries != 2 {
		t.Fatalf("budget tighten = %+v", got.Budget)
	}
}
