package logres

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/types"
)

// Incremental view maintenance and live query subscriptions (DESIGN.md
// §14). With WithIncremental the database keeps the derived instance
// materialized across commits: after every commit the extensional delta
// is propagated through the stratification (counting for non-recursive
// strata, DRed delete/rederive for recursive ones) instead of rerunning
// the fixpoint, and reads (Instance, Count, Query) serve from the
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
// instance. Commits pay for delta propagation (usually far cheaper than
// the from-scratch evaluation reads would otherwise run); Instance,
// InstanceString, Count, and option-free Query calls then serve from
// the maintained set without re-deriving. Required for SubscribeView.
//
// Reads in either mode trust the audit every state passed when it
// entered the database (commit, Load, recovery) and never repeat it;
// the two modes differ only in how they obtain the derived instance.
// Data-variant commits that change neither rules nor schema audit only
// what they changed, in either mode: without WithIncremental the
// extensional delta over a fresh derivation, with it the maintainer's
// exact view delta over the maintained instance staged ahead of the
// commit (rejections roll the staged update back). Every other commit
// audits its whole new instance inside module application.
// CheckConsistency remains available as an explicit full audit.
func WithIncremental(on bool) Option {
	return func(db *Database) { db.incremental = on }
}

// Incremental reports whether the database maintains its derived
// instance incrementally.
func (db *Database) Incremental() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.incremental
}

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
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.incremental {
		return nil, ErrNotIncremental
	}
	if db.maintErr != nil {
		return nil, fmt.Errorf("logres: incremental maintenance failed: %w", db.maintErr)
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
	// Commits notify under the write lock, so registering under the read
	// lock pins the epoch: no diff between reading it and appearing in
	// the fan-out map can be missed or duplicated.
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
// observability and cancellation stripped. Maintenance runs
// after the commit landed; aborting it cannot un-commit — a budget
// abort just falls back to recomputation, and if that aborts too the
// fast path is disabled until a later rebuild succeeds. Its internal
// evaluations stay out of the caller's trace stream (the database
// emits one ivm.propagate event per commit instead).
func maintOptions(opts engine.Options) engine.Options {
	opts.Tracer = nil
	opts.Ctx = nil
	return opts
}

// maintFingerprint identifies the (R, S) pair a maintainer's program
// was compiled from, so commits that only move E propagate as deltas
// while rule/schema changes rebuild.
func maintFingerprint(st *module.State) string {
	var b strings.Builder
	b.WriteString(st.S.String())
	b.WriteByte('\n')
	for _, r := range st.R {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// maintInit (re)builds the maintenance state from the published state.
// Callers hold the write lock or are the sole owner (Open/Load).
func (db *Database) maintInit() error {
	if !db.incremental {
		return nil
	}
	prog, err := engine.Compile(db.st.S, db.st.R, maintOptions(db.opts))
	if err != nil {
		return err
	}
	m, err := engine.NewMaintainer(prog, db.st.E, db.st.Counter)
	if err != nil {
		return err
	}
	db.maint, db.maintFP, db.maintErr = m, maintFingerprint(db.st), nil
	return nil
}

// maintRead returns the maintained full derived set and the oid counter
// a from-scratch evaluation would have left, when the incremental fast
// path can serve a read. Callers hold the read lock; the returned set
// is frozen.
func (db *Database) maintRead() (*engine.FactSet, int64, bool) {
	if db.maint == nil || db.maintErr != nil {
		return nil, 0, false
	}
	return db.maint.Full(), db.maint.Counter(), true
}

// maintDeferUsable reports whether commit-time deferred validation can
// run: the maintainer is healthy and synced to the published state's
// program, so a staged propagation plus an audit of the maintained set
// is equivalent to the from-scratch validation Apply would perform.
// Callers hold the write lock.
func (db *Database) maintDeferUsable() bool {
	return db.incremental && db.maint != nil && db.maintErr == nil &&
		maintFingerprint(db.st) == db.maintFP
}

// maintValidate audits the maintained full set after a staged update by
// the maintainer's exact view delta — the same delta audit a scratch
// commit runs, against the byte-identical maintained set, so both modes
// accept and reject alike (module.AuditInstanceDelta). It returns the
// audit it ran.
func (db *Database) maintValidate(s *types.Schema, vd *engine.ViewDelta) (string, error) {
	return module.AuditInstanceDelta(s, db.maint.Program(), db.maint.Full(), db.maint.Counter(), vd.Adds, vd.Preds())
}

// commitSerialStaged commits a deferred-validation serial application
// (module.ApplyDeferred): the extensional delta is staged through the
// maintainer first, the maintained instance is audited, and only then
// does the commit land — on rejection or a WAL failure the staged
// update rolls back and the database is untouched. The maintainer ends
// the commit already synced, so the usual post-publish maintenance
// hook is skipped and subscribers are notified directly.
func (db *Database) commitSerialStaged(opts engine.Options, res *module.Result) error {
	t := opts.Tracer
	next := res.State
	adds, removes := res.Delta()
	start := time.Now()
	vd, rollback, uerr := db.maint.UpdateStaged(adds, removes, next.E, next.Counter)
	if uerr != nil {
		// Propagation failed (e.g. budget abort mid-update): the
		// maintainer is inconsistent. Validate the scratch way and let
		// the post-commit hook rebuild it.
		db.maintErr = uerr
		if _, _, verr := next.Instance(opts); verr != nil {
			return fmt.Errorf("module: rejected: %w", verr)
		}
		return db.commitSerial(t, next)
	}
	audit, verr := db.maintValidate(next.S, vd)
	if verr != nil {
		rollback()
		return fmt.Errorf("module: rejected: %w", verr)
	}
	if err := db.walAppendReplace(t, db.log.Epoch()+1, next); err != nil {
		rollback()
		return err
	}
	db.publish(next)
	db.log.Record(engine.Footprint{Universal: true})
	db.maybeCompact()
	epoch := db.log.Epoch()
	if t != nil {
		t.Event(obs.Event{Kind: obs.KindIVMPropagate, Stratum: -1, Round: int(epoch),
			Count: len(vd.Adds) + len(vd.Removes), Total: db.maint.Full().TotalSize(),
			Duration: time.Since(start), Reason: audit})
	}
	db.notifySubs(t, epoch, vd)
	return nil
}

// maintAfterDelta propagates a fact-level commit (the concurrent fast
// and merge paths) through the maintenance state. Called under the
// write lock after the commit published and recorded its epoch.
func (db *Database) maintAfterDelta(t Tracer, adds, removes []Fact) {
	if !db.incremental {
		return
	}
	epoch := db.log.Epoch()
	if db.maint == nil || db.maintErr != nil {
		db.maintRebuild(t, epoch, "recover")
		return
	}
	db.maintPropagate(t, epoch, adds, removes)
}

// maintAfterReplace handles whole-state commits (serial applications,
// rule/schema-changing concurrent commits): when the rules and schema
// are unchanged the commit reduces to an extensional delta and
// propagates; otherwise the maintenance state is rebuilt against the
// new program. prev is the state published before the commit.
func (db *Database) maintAfterReplace(t Tracer, prev *module.State) {
	if !db.incremental {
		return
	}
	epoch := db.log.Epoch()
	if db.maint != nil && db.maintErr == nil && maintFingerprint(db.st) == db.maintFP {
		adds, removes := diffFrozen(prev.E, db.st.E)
		db.maintPropagate(t, epoch, adds, removes)
		return
	}
	db.maintRebuild(t, epoch, "replace")
}

// maintAfterRegister covers module registrations: the commit epoch
// advanced but (E, R, S) did not, so subscribers get their per-epoch
// (empty) diff and the maintenance state is untouched.
func (db *Database) maintAfterRegister(t Tracer) {
	if !db.incremental {
		return
	}
	db.notifySubs(t, db.log.Epoch(), &engine.ViewDelta{})
}

// maintPropagate runs one incremental update and fans the exact diff
// out; a propagation error falls back to a rebuild (always correct).
func (db *Database) maintPropagate(t Tracer, epoch uint64, adds, removes []Fact) {
	start := time.Now()
	vd, err := db.maint.Update(adds, removes, db.st.E, db.st.Counter)
	if err != nil {
		db.maintRebuild(t, epoch, "fallback: "+err.Error())
		return
	}
	if t != nil {
		t.Event(obs.Event{Kind: obs.KindIVMPropagate, Stratum: -1, Round: int(epoch),
			Count: len(vd.Adds) + len(vd.Removes), Total: db.maint.Full().TotalSize(),
			Duration: time.Since(start)})
	}
	db.notifySubs(t, epoch, vd)
}

// maintRebuild recomputes the maintenance state from scratch and diffs
// the old and new full sets so subscribers still see the exact change.
// An unrecoverable rebuild (the new state's program fails to evaluate)
// disables the fast path and fails every subscription — the commit
// itself already landed and is unaffected.
func (db *Database) maintRebuild(t Tracer, epoch uint64, reason string) {
	var oldFull *engine.FactSet
	if db.maint != nil {
		oldFull = db.maint.Full()
	}
	start := time.Now()
	if err := db.maintInit(); err != nil {
		db.maint, db.maintErr = nil, err
		db.failSubs(err)
		return
	}
	if t != nil {
		t.Event(obs.Event{Kind: obs.KindIVMRebuild, Stratum: -1, Round: int(epoch),
			Detail: reason, Duration: time.Since(start)})
	}
	vd := &engine.ViewDelta{}
	if oldFull == nil {
		oldFull = engine.NewFactSet()
	}
	vd.Adds, vd.Removes = diffFrozen(oldFull, db.maint.Full())
	engine.SortFactsByKey(vd.Adds)
	engine.SortFactsByKey(vd.Removes)
	db.notifySubs(t, epoch, vd)
}

// diffFrozen computes the fact-level difference between two fact sets
// (predicate union, membership check per fact).
func diffFrozen(before, after *engine.FactSet) (adds, removes []Fact) {
	for _, p := range after.Preds() {
		for _, f := range after.Facts(p) {
			if !before.Has(f) {
				adds = append(adds, f)
			}
		}
	}
	for _, p := range before.Preds() {
		for _, f := range before.Facts(p) {
			if !after.Has(f) {
				removes = append(removes, f)
			}
		}
	}
	return adds, removes
}
