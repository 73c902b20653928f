package logres

import (
	"context"
	"time"

	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
)

// Module application (DESIGN.md §9). Exec, Apply, Call and Materialize
// run one optimistic protocol, which holds the write lock only for a
// short commit critical section:
//
//  1. snapshot — read-lock the writers' lock just long enough to copy
//     the current (frozen) state and the commit-log epoch, so an
//     attempt waits for a commit in flight rather than evaluating
//     against the state it replaces (reads load the published snapshot
//     and take no lock, logres.go); a Call also looks its module up in
//     that state's library;
//  2. apply — run the module against the snapshot outside any lock,
//     audit its new instance (under WithIncremental, over the set of
//     the new state's maintainer, which the attempt steps from the
//     snapshot's or, for a new program, builds), and
//     record its read/write predicate footprint (static analysis of the
//     compiled rules, narrowed/widened by the runtime delta); a
//     rejection ends the application here;
//  3. validate + commit — write-lock, check the footprint against every
//     write committed since the snapshot epoch, and on success merge
//     the fact delta onto the current committed state (or install the
//     result, and the attempt's maintainer, wholesale when nothing
//     intervened), through commitLocked, the commit path Register
//     shares, which audits and derives nothing;
//  4. retry — on conflict, back off (capped exponential) and restart
//     from a fresh snapshot. The retry budget's last attempt runs steps
//     1–3 under the write lock, so it cannot conflict and commits like
//     any other (a delta with its own footprint). With retries disabled
//     the first conflict surfaces a *ConflictError naming both
//     footprints.
//
// Disjoint modules therefore evaluate in parallel and only serialize
// for the (cheap) commit; conflicting modules serialize through
// retries, producing a state bit-identical to some serial application
// order.

// DefaultMaxRetries is the retry bound of a module application when
// neither WithMaxRetries nor a per-call Budget.MaxRetries sets one: up
// to 8 optimistic attempts conflict and retry, and the 9th runs under
// the write lock.
const DefaultMaxRetries = 8

// Backoff schedule for conflict retries: capped exponential, starting
// small (conflicts usually resolve as soon as the winner's commit
// finishes) and never sleeping long enough to dominate latency.
const (
	retryBaseBackoff = 200 * time.Microsecond
	retryMaxBackoff  = 10 * time.Millisecond
)

// WithMaxRetries bounds the commit retries of every module application
// (Budget.MaxRetries). n > 0 sets the bound: after n conflicts the
// application retries once more under the write lock, where it cannot
// conflict. n == 0 restores DefaultMaxRetries, n < 0 disables retries
// entirely — the first conflict surfaces the *ConflictError.
func WithMaxRetries(n int) Option {
	return func(db *Database) { db.opts.Budget.MaxRetries = n }
}

// ExecConcurrent is Exec.
//
// Deprecated: use Exec, which is the optimistic protocol.
func (db *Database) ExecConcurrent(src string, options ...CallOption) (*Result, error) {
	return db.Exec(src, options...)
}

// target is what an application applies: a parsed module under an
// explicit mode; when name is set, the module registered under name
// with its declared mode, which each attempt looks up in the library of
// the state it evaluates against; or, when materialize is set, the
// materialization of the instance (Materialize).
type target struct {
	m           *Module
	mode        Mode
	name        string
	materialize bool
}

// evaluate runs one application attempt of t against the snapshot.
func (t *target) evaluate(s *stateSnapshot, opts engine.Options) (*module.SnapshotResult, error) {
	if t.materialize {
		return module.Materialize(s.st, s.maint, opts)
	}
	if t.name != "" {
		m, err := s.st.Lib.Lookup(t.name)
		if err != nil {
			return nil, err
		}
		t.m, t.mode = m, m.Mode
	}
	return module.ApplySnapshotMaintained(s.st, s.maint, t.m, t.mode, opts)
}

// modName is the module name the application's events carry; a
// materialization has none.
func (t *target) modName() string {
	if t.m == nil {
		return ""
	}
	return t.m.Name
}

// apply runs the application protocol described at the top of this
// file for Exec, Apply and Call.
func (db *Database) apply(ctx context.Context, t target, options []CallOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The call configuration cannot change between attempts (SetTracer's
	// contract is that in-flight evaluations keep the tracer they started
	// with), so options and the retry budget resolve once, outside the
	// attempt loop. Only the state/epoch snapshot is re-read per attempt.
	opts := applyCallOptions(db.snap.Load().opts, options)
	opts.Ctx = ctx
	// Request-scoped observability resolves once too: all attempts (and
	// their commit, conflict, retry, and WAL events) belong to the same
	// originating request and the same profile.
	finish := instrumentCall(ctx, &opts, options)
	defer finish()
	tracer := opts.Tracer

	maxRetries := opts.Budget.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}

	for attempt := 0; ; attempt++ {
		var sr *module.SnapshotResult
		var path, pred string
		var theirs Footprint
		var ok bool
		var err error
		if maxRetries > 0 && attempt == maxRetries || hooks.LockedApply.Load() {
			// The budget's last attempt cannot lose: a waiter's window
			// spans its wait for the write lock, which the running
			// committer can keep re-taking, so under steady contention
			// every optimistic attempt may conflict.
			sr, path, err = db.applyLocked(opts, &t)
			ok = true
		} else {
			// The snapshot's epoch tells validation exactly which commits
			// this evaluation could not have seen. Taking it under the
			// read lock waits for a commit in flight.
			db.mu.RLock()
			s := db.snap.Load()
			db.mu.RUnlock()
			if sr, err = t.evaluate(s, opts); err != nil {
				return nil, err
			}
			if hook := hooks.ConcurrentPreCommit; hook != nil {
				hook(attempt)
			}
			path, pred, theirs, ok, err = db.tryCommit(opts, s.epoch, sr)
		}
		if err != nil {
			// A WAL failure is not a conflict: the evaluation succeeded
			// but could not be made durable. No retry — the store
			// refuses writes until the database is reopened.
			return nil, err
		}
		if ok {
			if tracer != nil {
				tracer.Event(obs.Event{Kind: obs.KindModuleCommit, Pred: t.modName(),
					Round: attempt, Count: len(sr.Adds) + len(sr.Removes), Detail: path})
			}
			return &Result{Answer: sr.Res.Answer, Mode: t.mode}, nil
		}

		if tracer != nil {
			tracer.Event(obs.Event{Kind: obs.KindModuleConflict, Pred: pred, Round: attempt,
				Detail: "mine: " + sr.Footprint.String() + "; theirs: " + theirs.String()})
		}
		if maxRetries == 0 {
			// Only a disabled budget ends in a conflict: a positive one's
			// locked last attempt cannot lose. So Retries is always 0.
			cerr := &ConflictError{Pred: pred, Mine: sr.Footprint, Theirs: theirs}
			if tracer != nil {
				// The abort event is what flight recorders key their
				// dump on and what the metrics adapter counts under
				// logres_aborts_total{axis="retries"}.
				tracer.Event(obs.Event{Kind: obs.KindAbort, Axis: string(AxisRetries),
					Stratum: -1, Round: attempt, Detail: cerr.Error()})
			}
			return nil, cerr
		}

		backoff := retryBackoff(attempt)
		if tracer != nil {
			// Round is the attempt whose conflict triggered this backoff —
			// the same index the preceding KindModuleConflict carries, so a
			// conflict/retry pair diffs as one attempt in a trace.
			tracer.Event(obs.Event{Kind: obs.KindModuleRetry, Pred: t.modName(),
				Round: attempt, Duration: backoff})
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, &guard.CanceledError{Stratum: -1, Round: attempt, Err: ctx.Err()}
		case <-timer.C:
		}
	}
}

// retryBackoff returns the capped exponential backoff for a retry
// attempt. Doubling stops as soon as the cap is reached, so a large
// attempt count (reachable via WithMaxRetries / Budget.MaxRetries) can
// never shift the duration into overflow — the naive
// `retryBaseBackoff << attempt` wraps negative or zero once attempt
// exceeds ~45, the `> retryMaxBackoff` clamp no longer applies, and the
// timer fires immediately, turning conflict backoff into a hot spin.
func retryBackoff(attempt int) time.Duration {
	d := retryBaseBackoff
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d >= retryMaxBackoff {
			return retryMaxBackoff
		}
	}
	return d
}

// applyLocked is an attempt that holds the write lock from snapshot to
// commit: the retry budget's last attempt. Nothing commits between
// them, so validation passes and the commit is logged exactly as an
// optimistic one: a delta with the attempt's own footprint, or a
// replacement. The ConcurrentPreCommit test hook does not run: it may
// commit, which would deadlock here.
func (db *Database) applyLocked(opts engine.Options, t *target) (*module.SnapshotResult, string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.snap.Load()
	sr, err := t.evaluate(s, opts)
	if err != nil {
		return nil, "", err
	}
	path, _, _, _, err := db.commitLocked(opts, s.epoch, sr)
	return sr, path, err
}

// tryCommit is the commit critical section of an optimistic attempt:
// commitLocked under the write lock. A read-only attempt installs
// nothing, so it takes no lock.
func (db *Database) tryCommit(opts engine.Options, epoch uint64, sr *module.SnapshotResult) (path, pred string, theirs Footprint, ok bool, err error) {
	if !sr.ReadOnly {
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	return db.commitLocked(opts, epoch, sr)
}

// commitLocked is the one commit path of every state change: an
// application's or a materialization's, optimistic or locked, and a
// module registration's. The caller holds the write lock. The attempt
// has audited its state in either maintenance mode, and under
// WithIncremental built or stepped its maintainer, so the commit audits
// and derives nothing; it runs five stages (DESIGN.md §9):
//
//   - validate the attempt's footprint against the writes committed since
//     its snapshot epoch and pick the successor state;
//   - stage the successor's maintainer (maintStage): the attempt's own on
//     the fast path and on a replacement, the published one for a
//     registration, and on a merge the published one stepped by the
//     merged delta; a merged step that fails is a conflict;
//   - log the commit to the WAL of a durable database;
//   - record its write set at the next epoch, publish the state and its
//     maintainer with its snapshot at that epoch, and compact the WAL
//     when due;
//   - notify the maintenance event and the subscribers (maintNotify).
//
// It returns the commit path for tracing, and on a conflict the
// conflicting predicate plus the committed footprint it collided with. A
// logging failure (err != nil) drops the staged step, publishes nothing
// and fails the application without a retry; the store refuses further
// writes until reopened. opts is the committing call's
// (request-instrumented) configuration: its tracer attributes the WAL
// append and any fsync wait to the request that paid for them.
func (db *Database) commitLocked(opts engine.Options, epoch uint64, sr *module.SnapshotResult) (path, pred string, theirs Footprint, ok bool, err error) {
	if sr.ReadOnly {
		// Queries validate nothing: the answer was computed against a
		// consistent snapshot, which equals the serial order in which
		// the query ran at its snapshot point.
		return "read-only", "", Footprint{}, true, nil
	}
	// Validate: pick the successor state and the write set it records.
	var next *module.State
	written := Footprint{Universal: true}
	switch {
	case sr.Registered != nil:
		// Built from the published state under this lock; it writes no
		// predicate.
		next, path, written = sr.Res.State, "register", Footprint{}
	case sr.Replace:
		// Whole-state replacement is only sound when nothing committed
		// since the snapshot — it carries no mergeable delta.
		if db.log.Epoch() != epoch {
			return "", "*", Footprint{Universal: true}, false, nil
		}
		next, path = sr.Res.State, "replace"
	default:
		if p, their, valid := db.log.Validate(epoch, sr.Footprint); !valid {
			return "", p, their, false, nil
		}
		if db.log.Epoch() == epoch {
			// Nothing committed since the snapshot: the evaluated result
			// state is already the correct successor.
			next, path = sr.Res.State, "fast"
		} else {
			// Disjoint concurrent commits landed: replay the delta onto the
			// current committed state.
			next, path = module.CommitDelta(db.snap.Load().st, sr), "merge"
		}
		written = Footprint{Writes: sr.Footprint.Writes}
	}
	// Stage: the maintainer takes next.E as its base, so it is frozen
	// here as publish would leave it.
	next.E.Freeze()
	ms, merr := db.maintStage(next, sr, path)
	if merr != nil {
		return "", "maintenance: " + merr.Error(), Footprint{}, false, nil
	}
	// Log: a delta record replays removes-then-adds onto the predecessor
	// state — exactly what CommitDelta does — so recovery reproduces next
	// byte for byte on both the fast and merge paths.
	if err := db.walAppend(opts.Tracer, db.log.Epoch()+1, sr, next); err != nil {
		return "", "", Footprint{}, false, err
	}
	db.log.Record(written)
	db.publish(next, ms.M)
	db.maybeCompact()
	db.maintNotify(opts.Tracer, ms, sr.Registered != nil)
	return path, "", Footprint{}, true, nil
}

// CommitEpoch returns the database's current commit epoch — the number
// of state-changing commits recorded so far (introspection/tests).
func (db *Database) CommitEpoch() uint64 { return db.snap.Load().epoch }

// commitLogWindow exposes the validation window for tests.
func (db *Database) commitLogWindow() int { return db.log.Window() }
