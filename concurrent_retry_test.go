package logres

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"logres/internal/hooks"
	"logres/internal/obs"
)

// TestRetryBackoffNeverOverflows is the regression test for the shift
// overflow in the conflict backoff: `retryBaseBackoff << attempt` wraps
// negative/zero once attempt exceeds ~45 (reachable with a large
// WithMaxRetries / Budget.MaxRetries), the max clamp no longer applies,
// and the retry timer fires immediately — a hot spin. The clamped
// schedule must be strictly positive, monotonically non-decreasing, and
// capped for every attempt index.
func TestRetryBackoffNeverOverflows(t *testing.T) {
	prev := retryBackoff(0)
	if prev != retryBaseBackoff {
		t.Fatalf("retryBackoff(0) = %v, want %v", prev, retryBaseBackoff)
	}
	for attempt := 1; attempt <= 200; attempt++ {
		d := retryBackoff(attempt)
		if d <= 0 {
			t.Fatalf("retryBackoff(%d) = %v, want > 0 (shift overflow)", attempt, d)
		}
		if d < prev {
			t.Fatalf("retryBackoff(%d) = %v < retryBackoff(%d) = %v, want monotone non-decreasing",
				attempt, d, attempt-1, prev)
		}
		if d > retryMaxBackoff {
			t.Fatalf("retryBackoff(%d) = %v exceeds cap %v", attempt, d, retryMaxBackoff)
		}
		prev = d
	}
	// Deep into the formerly-overflowing range the schedule sits at the cap.
	for _, attempt := range []int{46, 50, 63, 64, 100} {
		if d := retryBackoff(attempt); d != retryMaxBackoff {
			t.Fatalf("retryBackoff(%d) = %v, want cap %v", attempt, d, retryMaxBackoff)
		}
	}
	// The old expression really did overflow — document why the clamp
	// exists. (The shift count is a variable so the compiler cannot
	// reject the constant overflow this test is about.)
	shift := 50
	if bad := retryBaseBackoff << shift; bad > 0 && bad <= retryMaxBackoff {
		t.Fatalf("shift expression no longer overflows (%v); reconsider this regression test", bad)
	}
}

// eventRecorder captures trace events for assertions.
type eventRecorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *eventRecorder) Event(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *eventRecorder) byKind(k obs.Kind) []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.Event
	for _, ev := range r.events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// TestConflictRetryRoundNumbersAgree: the conflict event of attempt N
// and the retry event that follows it must both carry Round N (the
// commit that finally lands carries its own attempt index). Before the
// fix the retry reported attempt+1, so a canonical trace diff showed a
// conflict at round N paired with a retry at round N+1 for the same
// attempt.
func TestConflictRetryRoundNumbersAgree(t *testing.T) {
	rec := &eventRecorder{}
	db, err := Open(concurrentSchema, WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	// Force conflicts on the first two attempts (a write to the predicate
	// the application writes); the third commits.
	hooks.ConcurrentPreCommit = func(attempt int) {
		if attempt < 2 {
			execLocked(t, db, "mode ridv.\nrules p1(x: 1"+string(rune('0'+attempt))+").\nend.\n")
		}
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	if _, err := db.Exec("mode ridv.\nrules p1(x: 1).\nend.\n"); err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}

	conflicts := rec.byKind(obs.KindModuleConflict)
	retries := rec.byKind(obs.KindModuleRetry)
	commits := rec.byKind(obs.KindModuleCommit)
	if len(conflicts) != 2 || len(retries) != 2 || len(commits) == 0 {
		t.Fatalf("events: %d conflicts, %d retries, %d commits; want 2, 2, >=1",
			len(conflicts), len(retries), len(commits))
	}
	for i := range conflicts {
		if conflicts[i].Round != i {
			t.Errorf("conflict %d: Round = %d, want %d", i, conflicts[i].Round, i)
		}
		if retries[i].Round != conflicts[i].Round {
			t.Errorf("retry %d: Round = %d, conflict Round = %d; want the same attempt index",
				i, retries[i].Round, conflicts[i].Round)
		}
		if retries[i].Duration <= 0 {
			t.Errorf("retry %d: Duration = %v, want > 0", i, retries[i].Duration)
		}
	}
	if got := commits[len(commits)-1].Round; got != 2 {
		t.Errorf("commit Round = %d, want 2 (third attempt)", got)
	}
}

// TestLastRetryCommitsUnderLock: when every optimistic attempt loses to
// a conflicting commit, the retry budget's last attempt evaluates and
// commits under the write lock and cannot lose. The application
// succeeds after exactly budget retries, and a durable database logs it
// as a delta record that recovery replays.
func TestLastRetryCommitsUnderLock(t *testing.T) {
	const budget = 3
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "durable"}[durable], func(t *testing.T) {
			rec := &eventRecorder{}
			opts := []Option{WithTracer(rec), WithMaxRetries(budget)}
			var db *Database
			var err error
			dir := t.TempDir()
			if durable {
				db, _, err = OpenDurable(durableSchema, Durability{Dir: dir}, opts...)
			} else {
				db, err = Open(durableSchema, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			hooks.ConcurrentPreCommit = func(attempt int) {
				// The same predicate the application writes.
				execLocked(t, db, durableMod("q1", 100+attempt))
			}
			defer func() { hooks.ConcurrentPreCommit = nil }()

			if _, err := db.Exec(durableMod("q1", 1)); err != nil {
				t.Fatalf("Exec with a positive budget failed: %v", err)
			}
			if n := len(rec.byKind(obs.KindModuleRetry)); n != budget {
				t.Fatalf("retry events = %d, want %d", n, budget)
			}
			// One commit per competing write, then the application's.
			commits := rec.byKind(obs.KindModuleCommit)
			if last := commits[len(commits)-1]; len(commits) != budget+1 || last.Round != budget || last.Detail != "fast" {
				t.Fatalf("commit events = %+v, want %d competing commits, then a fast one at attempt %d", commits, budget, budget)
			}
			if got := db.EDBCount("q1"); got != budget+1 {
				t.Fatalf("q1 holds %d facts, want %d", got, budget+1)
			}
			if !durable {
				return
			}
			appends := rec.byKind(obs.KindWALAppend)
			last := appends[len(appends)-1]
			if last.Pred != "delta" || uint64(last.Round) != db.CommitEpoch() {
				t.Fatalf("last WAL append = %s at epoch %d, want a delta at epoch %d", last.Pred, last.Round, db.CommitEpoch())
			}
			want := saveBytesDurable(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, _, err := OpenDurable(durableSchema, Durability{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			if got := saveBytesDurable(t, db2); !bytes.Equal(got, want) {
				t.Fatal("recovered Save bytes differ from the committed state")
			}
		})
	}
}

// TestRetryBackoffSleepsMonotonically drives a large-retry conflict loop
// end to end and asserts the traced backoff durations are monotonically
// non-decreasing and never negative — the observable symptom of the
// overflow was a sudden drop to immediate firing.
func TestRetryBackoffSleepsMonotonically(t *testing.T) {
	rec := &eventRecorder{}
	db, err := Open(concurrentSchema, WithTracer(rec), WithMaxRetries(6))
	if err != nil {
		t.Fatal(err)
	}
	hooks.ConcurrentPreCommit = func(int) {
		// Conflict on every optimistic attempt (the same predicate the
		// application writes); the locked last attempt runs no hook and
		// commits.
		execLocked(t, db, "mode ridv.\nrules p1(x: 7).\nend.\n")
	}
	defer func() { hooks.ConcurrentPreCommit = nil }()

	if _, err := db.Exec("mode ridv.\nrules p1(x: 1).\nend.\n"); err != nil {
		t.Fatalf("the budget's locked last attempt failed: %v", err)
	}
	retries := rec.byKind(obs.KindModuleRetry)
	if len(retries) != 6 {
		t.Fatalf("retry events = %d, want 6", len(retries))
	}
	var prev time.Duration
	for i, ev := range retries {
		if ev.Duration <= 0 {
			t.Fatalf("retry %d slept %v, want > 0", i, ev.Duration)
		}
		if ev.Duration < prev {
			t.Fatalf("retry %d slept %v < previous %v, want monotone non-decreasing", i, ev.Duration, prev)
		}
		prev = ev.Duration
	}
}
