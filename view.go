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
// commit (maintStage); reads (Instance, Count, Query) serve from the
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
// instance. Writes pay for delta propagation, in the attempt and again
// in a commit that merges (usually far cheaper than the from-scratch
// evaluation reads would otherwise run); Instance,
// InstanceString, Count, and option-free Query calls then serve from
// the maintained set without re-deriving. Required for SubscribeView.
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
// audits its whole new instance.
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
// closes, then consult Err: nil after Close, a *SlowConsumerError after
// a backpressure disconnect, or the maintenance failure that tore down
// every subscription.
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

// Err reports why the subscription ended; nil while it is live or after
// an explicit Close.
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
	if err := db.snap.Load().maintErr; err != nil {
		return nil, fmt.Errorf("logres: incremental maintenance failed: %w", err)
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

// failSubs tears down every subscription with the maintenance error
// that made further exact diffs impossible.
func (db *Database) failSubs(err error) {
	db.subMu.Lock()
	defer db.subMu.Unlock()
	for id, s := range db.subs {
		delete(db.subs, id)
		s.finish(fmt.Errorf("logres: incremental maintenance failed: %w", err))
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

// maintOptions is the engine configuration of the maintainer's private
// program: the database's evaluation settings (vectorize, budget) with
// observability and cancellation stripped. A rebuild is one run of that
// program, all of it under the budget. Maintenance never rejects a
// commit: a budget abort of an attempt's propagation falls back to the
// attempt's scratch derivation, one of a commit's to a rebuild, and if
// that aborts too the state is published without a maintainer until a
// later commit rebuilds one. Its internal
// evaluations stay out of the caller's trace stream (the database emits
// one ivm.propagate or ivm.rebuild event per commit instead).
func maintOptions(opts engine.Options) engine.Options {
	opts.Tracer = nil
	opts.Ctx = nil
	return opts
}

// start publishes the first state of a database it is the sole owner
// of (Open, Load, recovery), with, under WithIncremental, a maintainer
// built over it on a fork of the state's program.
func (db *Database) start(st *module.State) error {
	var m *engine.Maintainer
	if db.incremental {
		st.E.Freeze()
		prog, err := st.Program(maintOptions(db.opts))
		if err != nil {
			return err
		}
		if m, err = engine.NewMaintainer(prog, st.E, st.Counter); err != nil {
			return err
		}
	}
	db.publish(st, m, nil)
	return nil
}

// maintStep is the maintainer's step to one commit's successor state,
// staged before the commit is logged. A commit that lands publishes m
// with its state; one that does not drops the step, and the published
// maintainer keeps serving the unchanged state.
type maintStep struct {
	// m is the maintainer that serves the successor state; nil without
	// maintenance, or when the rebuild failed (fail).
	m *engine.Maintainer
	// vd is the view diff the subscribers get; nil when m is.
	vd   *engine.ViewDelta
	ev   obs.Event // ivm.propagate or ivm.rebuild; no Kind for neither
	fail error     // the rebuild's error: every subscription ends with it
}

// maintStage steps the published maintainer to next, the successor
// state of a commit that takes path, before the commit is logged. It
// audits nothing: the attempt audited its state (module.ApplySnapshotMaintained).
// On the fast path it installs the attempt's step, when it made one, of
// the maintainer that still serves the current state. Otherwise, when
// the maintainer runs next's program, it propagates the commit's
// extensional delta: a merged delta, which validation found disjoint
// from every write since the snapshot, as it does without maintenance;
// a replacement's diff of the two extensions; a registration's empty
// one, which propagates nothing. Otherwise (rules or schema changed, no
// maintainer serves the current state, or the propagation fails) it
// rebuilds over next. Maintenance runs under maintOptions and never
// fails the commit: a rebuild that fails leaves the successor state
// without a maintainer and ends every subscription.
func (db *Database) maintStage(next *module.State, sr *module.SnapshotResult, path string) *maintStep {
	step := &maintStep{}
	if !db.incremental {
		return step
	}
	start := time.Now()
	propagated := func(m *engine.Maintainer, vd *engine.ViewDelta, took time.Duration) *maintStep {
		step.m, step.vd = m, vd
		step.ev = obs.Event{Kind: obs.KindIVMPropagate, Stratum: -1, Count: len(vd.Adds) + len(vd.Removes),
			Total: m.Full().TotalSize(), Duration: took}
		return step
	}
	if ms := sr.Maintained; ms != nil && path == "fast" {
		return propagated(ms.M, ms.View, ms.Took)
	}
	prog, err := next.Program(maintOptions(db.opts))
	cur := db.snap.Load()
	reason := "recover"
	if cur.maint != nil && err == nil && cur.maint.Program().Shares(prog) {
		if next.E == cur.st.E {
			step.m, step.vd = cur.maint, &engine.ViewDelta{}
			return step
		}
		adds, removes := sr.Adds, sr.Removes
		if sr.Replace {
			adds, removes = diffFrozen(cur.st.E, next.E)
		}
		m, vd, uerr := cur.maint.Next(adds, removes, next.E, next.Counter)
		if uerr == nil {
			return propagated(m, vd, time.Since(start))
		}
		reason = "fallback: " + uerr.Error()
	} else if cur.maint != nil {
		reason = "replace"
	}
	// Rebuild over next, diffing the old and new full sets so subscribers
	// still see the exact change.
	if err == nil {
		step.m, err = engine.NewMaintainer(prog, next.E, next.Counter)
	}
	if err != nil {
		step.fail = err
		return step
	}
	oldFull := engine.NewFactSet()
	if cur.maint != nil {
		oldFull = cur.maint.Full()
	}
	vd := &engine.ViewDelta{}
	vd.Adds, vd.Removes = diffFrozen(oldFull, step.m.Full())
	engine.SortFactsByKey(vd.Adds)
	engine.SortFactsByKey(vd.Removes)
	step.vd = vd
	step.ev = obs.Event{Kind: obs.KindIVMRebuild, Stratum: -1, Detail: reason, Duration: time.Since(start)}
	return step
}

// maintNotify reports a landed commit's maintenance step at the new
// epoch and fans its view diff out to the subscribers, or ends every
// subscription with the rebuild's error. Called under the write lock
// after the commit published.
func (db *Database) maintNotify(t Tracer, step *maintStep) {
	epoch := db.log.Epoch()
	if step.fail != nil {
		db.failSubs(step.fail)
		return
	}
	if step.vd == nil {
		return
	}
	if t != nil && step.ev.Kind != "" {
		step.ev.Round = int(epoch)
		t.Event(step.ev)
	}
	db.notifySubs(t, epoch, step.vd)
}

// diffFrozen computes the fact-level difference between two fact sets,
// predicate by predicate over the union of their predicates, each
// through DiffPred, which skips what the two share.
func diffFrozen(before, after *engine.FactSet) (adds, removes []Fact) {
	preds := after.Preds()
	for _, p := range before.Preds() {
		if after.Size(p) == 0 {
			preds = append(preds, p)
		}
	}
	for _, p := range preds {
		a, r := after.DiffPred(before, p)
		adds, removes = append(adds, a...), append(removes, r...)
	}
	return adds, removes
}
