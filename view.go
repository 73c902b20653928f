package logres

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/types"
)

// Incremental view maintenance and live query subscriptions (DESIGN.md
// §14). With WithIncremental the database keeps the derived instance
// materialized across commits: each commit's extensional delta is
// propagated through the stratification (DRed delete/rederive, which
// checks each fact that lost a derivation before it over-deletes)
// instead of rerunning the fixpoint, by the application's attempt
// outside the write lock and, when the commit merges, again in the
// commit (maintStage). A commit that changes the program has its
// maintainer built by its attempt, also outside the lock; the commit
// itself never derives. Reads (Instance, Count, Query) serve from the
// maintained set. Strata outside the eligible fragment — oid invention,
// deletions, negation, data-function reads — are recomputed on top of
// the maintained prefix; a program with no eligible stratum degenerates
// to caching the last full evaluation. Either way the maintained set is
// byte-identical to a from-scratch recomputation.
//
// Live subscriptions ride on the maintained set: SubscribeView delivers
// exactly one ViewDiff per state-changing commit epoch — the exact
// fact-level difference of the derived instance — over a bounded
// channel. A subscriber that falls behind is disconnected with a typed
// *SlowConsumerError rather than ever blocking a commit.

// WithIncremental enables incremental maintenance of the derived
// instance: every published state carries the maintainer that serves
// it. Writes pay for delta propagation, in the attempt and again in a
// commit that merges (usually far cheaper than the from-scratch
// evaluation reads would otherwise run); an attempt that changes rules
// or schema, or whose propagation fails, builds its new state's
// maintainer by the one derivation it would make without maintenance.
// Instance, InstanceString, Count, and option-free Query calls then
// serve from the maintained set without re-deriving. Required for
// SubscribeView.
//
// Reads in either mode trust the audit every state passed when it
// entered the database (commit, Load, recovery) and never repeat it;
// the two modes differ only in how they obtain the derived instance.
// Every application attempt audits its new instance before it commits,
// in either mode, and the commit audits nothing. Data-variant attempts
// that change neither rules nor schema audit only what they changed:
// without WithIncremental the extensional delta over a fresh
// derivation, with it the exact view delta of the step that takes the
// snapshot's maintainer to the new state (a rejection drops the step,
// and the published maintainer keeps serving). Every other attempt
// audits its whole new instance, with it the set of the maintainer it
// built. A merged commit whose propagation fails does not land: it
// conflicts, and its retry builds in its attempt.
// CheckConsistency remains available as an explicit full audit.
func WithIncremental(on bool) Option {
	return func(db *Database) { db.incremental = on }
}

// Incremental reports whether the database maintains its derived
// instance incrementally.
func (db *Database) Incremental() bool { return db.incremental }

// ErrNotIncremental is returned by SubscribeView on a database opened
// without WithIncremental.
var ErrNotIncremental = errors.New("logres: live subscriptions require WithIncremental")

// DefaultSubscriptionBuffer is the per-subscription diff buffer when
// SubscribeOptions.Buffer is unset.
const DefaultSubscriptionBuffer = 16

// ViewDiff is the fact-level difference of the derived instance across
// one commit epoch: every fact that became derivable and every fact
// that ceased to be, each sorted by fact key. Subscribers receive
// exactly one ViewDiff per state-changing commit, in epoch order with
// no gaps (a commit that leaves the subscribed predicates unchanged
// delivers an empty diff).
type ViewDiff struct {
	Epoch   uint64
	Adds    []Fact
	Removes []Fact
}

// SlowConsumerError is the typed error a subscription ends with when
// its consumer cannot keep up: the diff for Epoch found the Buffer-deep
// channel full, and the subscription was disconnected rather than
// blocking the commit. Retrieve it with errors.As on Subscription.Err.
type SlowConsumerError struct {
	Epoch  uint64
	Buffer int
}

func (e *SlowConsumerError) Error() string {
	return fmt.Sprintf("logres: subscriber too slow: diff for epoch %d overflowed the %d-entry buffer", e.Epoch, e.Buffer)
}

// SubscribeOptions configures one live subscription.
type SubscribeOptions struct {
	// Preds restricts diffs to these predicates (empty = all). Filtering
	// happens before delivery, so an uninterested subscriber still
	// receives (empty) per-epoch diffs but never the facts.
	Preds []string
	// Buffer is the diff channel capacity (<= 0 selects
	// DefaultSubscriptionBuffer). A commit finding the buffer full
	// disconnects the subscription with a *SlowConsumerError.
	Buffer int
}

// Subscription is one live view subscription. Receive from C until it
// closes, then consult Err: nil after Close, or a *SlowConsumerError
// after a backpressure disconnect. Maintenance never ends a
// subscription: no commit publishes a state without a maintainer.
type Subscription struct {
	// C delivers one ViewDiff per state-changing commit epoch, in
	// order. It closes when the subscription ends.
	C <-chan ViewDiff
	// Epoch is the commit epoch the subscription started at: the first
	// diff delivered (if any commit follows) carries Epoch+1.
	Epoch uint64

	db     *Database
	id     uint64
	ch     chan ViewDiff
	preds  map[string]bool
	buffer int

	mu     sync.Mutex
	err    error
	closed bool
}

// Err reports why the subscription ended: a *SlowConsumerError after a
// backpressure disconnect; nil while it is live or after an explicit
// Close.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close detaches the subscription and closes C. Idempotent; safe
// concurrently with commits.
func (s *Subscription) Close() {
	s.db.subMu.Lock()
	delete(s.db.subs, s.id)
	s.db.subMu.Unlock()
	s.finish(nil)
}

// finish ends the subscription once, recording the terminal error.
func (s *Subscription) finish(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.err = err
	close(s.ch)
}

// SubscribeView registers a live subscription on the maintained derived
// instance. It requires WithIncremental (ErrNotIncremental otherwise).
func (db *Database) SubscribeView(opts SubscribeOptions) (*Subscription, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.incremental {
		return nil, ErrNotIncremental
	}
	buffer := opts.Buffer
	if buffer <= 0 {
		buffer = DefaultSubscriptionBuffer
	}
	var preds map[string]bool
	if len(opts.Preds) > 0 {
		preds = map[string]bool{}
		for _, p := range opts.Preds {
			preds[types.Canon(p)] = true
		}
	}
	s := &Subscription{db: db, ch: make(chan ViewDiff, buffer), preds: preds, buffer: buffer}
	s.C = s.ch
	// Commits notify under the write lock, so registering under it pins
	// the epoch: no diff between reading it and appearing in the fan-out
	// map can be missed or duplicated.
	s.Epoch = db.log.Epoch()
	db.subMu.Lock()
	db.subID++
	s.id = db.subID
	if db.subs == nil {
		db.subs = map[uint64]*Subscription{}
	}
	db.subs[s.id] = s
	db.subMu.Unlock()
	return s, nil
}

// Subscribers reports the number of live subscriptions.
func (db *Database) Subscribers() int {
	db.subMu.Lock()
	defer db.subMu.Unlock()
	return len(db.subs)
}

// notifySubs fans one commit's view delta out to every subscription.
// Called under the write lock (after the commit published), so diffs
// are delivered in epoch order. Sends never block: a full buffer
// disconnects that subscriber with a *SlowConsumerError.
func (db *Database) notifySubs(t Tracer, epoch uint64, vd *engine.ViewDelta) {
	db.subMu.Lock()
	defer db.subMu.Unlock()
	if len(db.subs) == 0 {
		return
	}
	delivered, dropped := 0, 0
	for id, s := range db.subs {
		diff := ViewDiff{Epoch: epoch, Adds: filterFacts(vd.Adds, s.preds), Removes: filterFacts(vd.Removes, s.preds)}
		select {
		case s.ch <- diff:
			delivered++
		default:
			delete(db.subs, id)
			dropped++
			s.finish(&SlowConsumerError{Epoch: epoch, Buffer: s.buffer})
		}
	}
	if t != nil {
		t.Event(obs.Event{Kind: obs.KindSubEmit, Stratum: -1, Round: int(epoch),
			Count: delivered, Total: dropped})
	}
}

func filterFacts(fs []Fact, preds map[string]bool) []Fact {
	if preds == nil {
		return fs
	}
	var out []Fact
	for _, f := range fs {
		if preds[f.Pred] {
			out = append(out, f)
		}
	}
	return out
}

// maintOptions is the engine configuration of every published
// maintainer's program: the database's evaluation settings (vectorize,
// budget) with observability and cancellation stripped. start builds
// under it; an attempt builds under its call's options and hands its
// maintainer over on a fork under the options of the snapshot's, which
// are these (module.Maintained). So a step's internal evaluations stay
// out of every caller's trace stream (the database emits one
// ivm.propagate or ivm.rebuild event per commit instead), and no
// request's context or per-call budget outlives its call.
func maintOptions(opts engine.Options) engine.Options {
	opts.Tracer = nil
	opts.Ctx = nil
	return opts
}

// maintStage returns the maintainer of next, the successor state of a
// commit that takes path, staged before the commit is logged (one with
// no M without maintenance). It derives and audits nothing: the attempt built
// or stepped the maintainer of its state and audited its set
// (module.Maintained). So it installs the attempt's maintainer on the
// fast path and on a replacement, which both succeed the snapshot that
// maintainer's predecessor serves; it reuses the published maintainer
// for a registration, which changes neither E, R nor S; and on a merge
// it steps the published maintainer by the merged delta, which
// validation found disjoint from every write since the snapshot. A
// merged step that fails (under maintOptions' budget) is returned: the
// commit then does not land, and the application retries, building the
// maintainer in its next attempt. A commit that does not land drops the
// staged maintainer, and the published one keeps serving.
func (db *Database) maintStage(next *module.State, sr *module.SnapshotResult, path string) (*module.Maintained, error) {
	if !db.incremental {
		return &module.Maintained{}, nil
	}
	cur := db.snap.Load().maint
	switch {
	case sr.Registered != nil:
		return &module.Maintained{M: cur, View: &engine.ViewDelta{}}, nil
	case path == "merge":
		start := time.Now()
		m, vd, err := cur.Next(sr.Adds, sr.Removes, next.E, next.Counter)
		if err != nil {
			return nil, err
		}
		return &module.Maintained{M: m, View: vd, Took: time.Since(start)}, nil
	}
	return sr.Maintained, nil
}

// maintNotify reports a landed commit's maintenance at the new epoch —
// ivm.rebuild for a built maintainer, ivm.propagate for a stepped one,
// none for a registration — and fans its view diff out to the
// subscribers. Called under the write lock after the commit published.
func (db *Database) maintNotify(t Tracer, ms *module.Maintained, registered bool) {
	if ms.View == nil {
		return
	}
	epoch := db.log.Epoch()
	if t != nil && !registered {
		ev := obs.Event{Kind: obs.KindIVMPropagate, Stratum: -1, Round: int(epoch),
			Count: len(ms.View.Adds) + len(ms.View.Removes), Total: ms.M.Full().TotalSize(), Duration: ms.Took}
		if ms.Rebuilt != "" {
			ev = obs.Event{Kind: obs.KindIVMRebuild, Stratum: -1, Round: int(epoch), Detail: ms.Rebuilt, Duration: ms.Took}
		}
		t.Event(ev)
	}
	db.notifySubs(t, epoch, ms.View)
}
