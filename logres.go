// Package logres is a from-scratch implementation of LOGRES (Cacace,
// Ceri, Crespi-Reghizzi, Tanca, Zicari — SIGMOD 1990): a deductive
// object-oriented database integrating an object-oriented data model
// (classes, oids, generalization hierarchies, object sharing, NF²
// associations, generalized type constructors) with a typed, rule-based
// language under the deterministic inflationary semantics, organized
// around modules with six application modes.
//
// The core workflow:
//
//	db, err := logres.Open(schemaSrc)        // type equations + isa
//	res, err := db.Exec(moduleSrc)           // apply a module (mode-aware)
//	ans, err := db.Query(`?- person(name: X).`)
//
// Schema, modules, rules and goals use the concrete syntax documented in
// the repository README, which covers every construct of the paper.
package logres

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/types"
	"logres/internal/value"
)

// Mode is a module application mode (§4.1 of the paper).
type Mode = ast.Mode

// The six application modes: Rule Invariant/Addition/Deletion × Data
// Invariant/Variant.
const (
	RIDI = ast.RIDI
	RADI = ast.RADI
	RDDI = ast.RDDI
	RIDV = ast.RIDV
	RADV = ast.RADV
	RDDV = ast.RDDV
)

// Module is a parsed LOGRES module: type equations, rules and an optional
// goal, with an optional declared default mode.
type Module = ast.Module

// Answer is a goal's result: variable names and deduplicated rows.
type Answer = engine.Answer

// Value is a LOGRES runtime value (integers, reals, strings, booleans,
// object references, tuples, sets, multisets, sequences).
type Value = value.Value

// Fact is one ground fact of the database instance.
type Fact = engine.Fact

// Budget bounds every evaluation the database runs, along four axes:
// fixpoint rounds, facts derived beyond the extensional base, invented
// oids, and wall-clock time (armed when each evaluation starts). A zero
// axis is unbounded. Exhausting an axis aborts the evaluation with a
// *BudgetError and leaves the database state untouched.
type Budget = engine.Budget

// BudgetError is the typed abort error of an exhausted budget axis; it
// names the axis and carries the stratum, round, and resource counts at
// the abort. Retrieve it with errors.As.
type BudgetError = engine.BudgetError

// CanceledError is the typed abort error of a context cancellation; it
// unwraps to context.Canceled / context.DeadlineExceeded.
type CanceledError = engine.CanceledError

// PanicError is the typed error a recovered evaluation panic surfaces
// as; the database state is unchanged.
type PanicError = engine.PanicError

// ConflictError is the typed error a module application with retries
// disabled (WithMaxRetries(-1), WithCallMaxRetries(-1)) surfaces when its
// commit validation failed; it names the conflicting predicate and
// carries both footprints. Retrieve it with errors.As.
type ConflictError = engine.ConflictError

// Footprint is the predicate-level read/write access set module
// applications validate against each other.
type Footprint = engine.Footprint

// Axis names one budget dimension in a BudgetError.
type Axis = engine.Axis

// The budget axes a BudgetError can name (AxisRetries appears only in
// the abort trace event of an application that conflicted with retries
// disabled — the error itself is a *ConflictError).
const (
	AxisRounds   = engine.AxisRounds
	AxisFacts    = engine.AxisFacts
	AxisOIDs     = engine.AxisOIDs
	AxisDeadline = engine.AxisDeadline
	AxisRetries  = engine.AxisRetries
)

// Option configures a Database.
type Option func(*Database)

// WithBudget bounds every evaluation the database runs; aborts surface
// as *BudgetError and never mutate the database.
func WithBudget(b Budget) Option {
	return func(db *Database) { db.opts.Budget = b }
}

// WithContext attaches a cancellation context to every evaluation the
// database runs; cancellation aborts between fixpoint rounds with a
// *CanceledError, state untouched. The *Context methods override it per
// call.
func WithContext(ctx context.Context) Option {
	return func(db *Database) { db.opts.Ctx = ctx }
}

// WithNonInflationary selects the non-inflationary rule semantics for the
// whole database (modules may also opt in individually with a
// `semantics noninflationary.` declaration): derived facts persist only
// while re-derivable; undefined (an error) when no fixpoint is reached.
func WithNonInflationary(on bool) Option {
	return func(db *Database) { db.opts.NonInflationary = on }
}

// WithWorkers accepts only 1: evaluation is serial. Any other value
// makes Open, Load and OpenDurable fail with an error naming the option.
//
// Deprecated: drop the option.
func WithWorkers(n int) Option {
	return func(db *Database) { db.opts.Workers = n }
}

// WithShards accepts only 1: a fact set has one layout. Any other value
// makes Open, Load and OpenDurable fail with an error naming the option.
//
// Deprecated: drop the option.
func WithShards(n int) Option {
	return func(db *Database) { db.opts.Shards = n }
}

// WithVectorize toggles columnar evaluation (default on): eligible
// semi-naive strata run over dictionary-encoded column batches with
// vectorized select/join/anti-join/filter kernels instead of
// tuple-at-a-time row evaluation. Strata the columnar compiler cannot
// handle (tuple variables, oid invention, class predicates, …) fall
// back to the row engine per stratum; Explain and the call Profile name
// the rule and construct that kept each one there. Results are
// bit-identical either way, invented oids included: a later stratum
// numbers its oids by valuation, not by the order the columnar kernels
// or the row engine derived its input in. The row engine remains the
// semantics oracle, and WithVectorize(false) selects it for every
// stratum.
func WithVectorize(on bool) Option {
	return func(db *Database) { db.opts.Vectorize = on }
}

// Database is a LOGRES database: a state (E, R, S) evolved by module
// applications. All methods are safe for concurrent use. Every commit
// publishes one immutable snapshot of the state it installs, with, under
// WithIncremental, the maintained instance that serves it, and the
// read-only methods (Query, Instance, Count, Save, …) load the newest
// one without taking any lock, so a read never waits for a writer, nor
// a writer for a read. The database lock is the writers': a module
// application holds it only to copy its snapshot and to commit, and
// evaluates in between (but for the retry budget's last attempt, which
// holds it throughout). A published state is never written. A
// from-scratch read builds its indexes on its own run's copy of E;
// readers of one maintained derived set (WithIncremental) share its
// indexes, each built once, on its first probe.
type Database struct {
	// mu is the writers' lock: commits, the locked attempt and the
	// changes of configuration that republish hold it; an optimistic
	// attempt read-locks it to copy its snapshot, so a commit's unlock
	// hands it to the waiting attempts before the committer can take it
	// again. Readers never take it.
	mu sync.RWMutex
	// snap is the published snapshot (publish): the current state, with
	// the maintainer that serves it. Loading it is a read's only
	// synchronisation; a writer loads it under mu.
	snap atomic.Pointer[stateSnapshot]
	// opts is the configuration as the writers see it, under mu.
	opts engine.Options
	// tracer/metrics are the configured observability sinks; the engine
	// sees their fan-out through opts.Tracer (see rewireTracer).
	tracer  Tracer
	metrics *Metrics
	// log is the committed-write log backing module application: every
	// state-changing commit records its write footprint at a fresh epoch,
	// and an application validates against the entries committed since
	// its snapshot.
	log *storage.CommitLog
	// store, when non-nil, is the durable half (OpenDurable): every
	// commit appends one WAL record at its epoch before acknowledging.
	store *storage.Store
	// recovery is the report of the recovery that opened this database
	// (nil for fresh or non-durable databases).
	recovery *RecoveryReport
	// Incremental view maintenance (view.go): with WithIncremental each
	// published snapshot carries the maintainer that serves its state,
	// and reads serve from it.
	incremental bool
	// Live subscriptions (view.go): commits fan their exact view diff
	// out under subMu (always acquired after the write lock, never
	// holding it across a send — sends are non-blocking).
	subMu sync.Mutex
	subs  map[uint64]*Subscription
	subID uint64
}

// newDatabase builds an unpublished database from the default options
// and the caller's, rejecting the values the engine no longer supports.
func newDatabase(log *storage.CommitLog, options []Option) (*Database, error) {
	db := &Database{opts: engine.DefaultOptions(), log: log}
	for _, o := range options {
		o(db)
	}
	if n := db.opts.Workers; n != 0 && n != 1 {
		return nil, fmt.Errorf("logres: WithWorkers(%d): parallel evaluation was removed; only 1 is accepted", n)
	}
	if n := db.opts.Shards; n != 0 && n != 1 {
		return nil, fmt.Errorf("logres: WithShards(%d): sharded fact sets were removed; only 1 is accepted", n)
	}
	return db, nil
}

// publish freezes the state's extensional facts and publishes its
// snapshot, the one readers and writers load from now on, with maint,
// the maintainer that serves st (nil without WithIncremental). It is the
// one place that installs a maintainer. A commit publishes after it has
// recorded its epoch and staged its maintenance, so the snapshot carries
// both. Callers hold the write lock or are the sole owner (Open, Load,
// recovery, AsOf).
func (db *Database) publish(st *module.State, maint *engine.Maintainer) {
	st.E.Freeze()
	db.snap.Store(&stateSnapshot{st: st, epoch: db.log.Epoch(), opts: db.opts, maint: maint})
}

// start publishes the first state of a database it is the sole owner
// of: Open's empty state, or one that enters without a commit (Load,
// recovery), which reads trust to have passed the audit, so it is
// audited here, once: Definition 4 consistency and the passive
// constraints, under the database's budget but no context
// (maintOptions). Under WithIncremental it builds the state's
// maintainer on a fork of its program under maintOptions, the one build
// outside an application's attempt, and audits the maintained set
// (module.AuditMaintainer), so the state is derived once.
func (db *Database) start(st *module.State, audit bool) error {
	st.E.Freeze()
	opts := maintOptions(db.opts)
	var m *engine.Maintainer
	var err error
	switch {
	case db.incremental:
		var prog *engine.Program
		if prog, err = st.Program(opts); err == nil {
			m, err = engine.NewMaintainer(prog, st.E, st.Counter)
		}
		if err == nil && audit {
			err = module.AuditMaintainer(st, m)
		}
	case audit:
		err = st.Audit(opts)
	}
	if err != nil {
		return err
	}
	db.publish(st, m)
	return nil
}

// Open creates a database over the schema declared in src (domains /
// classes / associations / functions sections; rules and goals are not
// allowed here — apply them as modules).
func Open(src string, options ...Option) (*Database, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	if len(m.Rules) > 0 || len(m.Goal) > 0 {
		return nil, fmt.Errorf("logres: Open takes only schema sections; apply rules via Exec")
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	db, err := newDatabase(storage.NewCommitLog(0), options)
	if err != nil {
		return nil, err
	}
	if err := db.start(module.NewState(m.Schema), false); err != nil {
		return nil, err
	}
	return db, nil
}

// ParseModule parses a module without applying it.
func ParseModule(src string) (*Module, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Result is the outcome of a module application.
type Result struct {
	// Answer holds the goal bindings for data-invariant modes with a
	// goal; nil otherwise.
	Answer *Answer
	// Mode is the mode the module was applied with.
	Mode Mode
}

// Exec parses and applies a module with its declared mode (RIDI when none
// is declared). On success the database state advances; on rejection
// (inconsistent result, §4.1) or any abort (budget, cancellation, panic)
// the state is unchanged and the error describes the violation. Per-call
// options (WithCallBudget) tighten the database-wide guardrails for this
// invocation only.
//
// Evaluation runs against a snapshot outside the write lock, so
// applications touching disjoint predicates proceed in parallel; the
// commit validates the application's read/write footprint against the
// writes committed since its snapshot (concurrent.go). A conflict
// retries up to the retry budget (WithMaxRetries, WithCallMaxRetries),
// whose last attempt runs under the write lock and cannot lose; with
// retries disabled it returns a *ConflictError.
func (db *Database) Exec(src string, options ...CallOption) (*Result, error) {
	return db.ExecContext(db.ctx(), src, options...)
}

// ExecContext is Exec under an explicit cancellation context: canceling
// aborts the in-flight evaluation with a *CanceledError and the database
// state stays bit-identical to its pre-application snapshot.
func (db *Database) ExecContext(ctx context.Context, src string, options ...CallOption) (*Result, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return db.ApplyContext(ctx, m, m.Mode, options...)
}

// Apply applies a parsed module with an explicit mode.
func (db *Database) Apply(m *Module, mode Mode, options ...CallOption) (*Result, error) {
	return db.ApplyContext(db.ctx(), m, mode, options...)
}

// ApplyContext is Apply under an explicit cancellation context;
// cancellation aborts evaluation between rounds and backoff sleeps
// immediately, surfacing a *CanceledError. A data-variant module that
// changes neither rules nor schema commits as a fact delta recording
// its own write set, any other state change as a whole-state
// replacement.
func (db *Database) ApplyContext(ctx context.Context, m *Module, mode Mode, options ...CallOption) (*Result, error) {
	return db.apply(ctx, target{m: m, mode: mode}, options)
}

// Query evaluates a goal (`?- lit, … .`) against the current instance —
// sugar for a RIDI module containing only the goal.
func (db *Database) Query(goalSrc string, options ...CallOption) (*Answer, error) {
	return db.QueryContext(db.ctx(), goalSrc, options...)
}

// QueryContext is Query under an explicit cancellation context.
func (db *Database) QueryContext(ctx context.Context, goalSrc string, options ...CallOption) (*Answer, error) {
	goal, err := parser.ParseGoal(goalSrc)
	if err != nil {
		return nil, err
	}
	s := db.snap.Load()
	if len(options) == 0 && s.maint != nil {
		// Option-free goals serve straight from the maintained derived
		// set — no per-call budget or profile to honor, and the program
		// is the same one a from-scratch RIDI application would compile.
		return s.maint.Program().Query(s.maint.Full(), goal)
	}
	opts := applyCallOptions(s.opts, options)
	opts.Ctx = ctx
	finish := instrumentCall(ctx, &opts, options)
	defer finish()
	m := &ast.Module{Schema: types.NewSchema(), Goal: goal}
	res, err := module.Apply(s.st, m, ast.RIDI, opts)
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// ctx returns the database's configured evaluation context (nil is fine:
// the engine treats it as context.Background()).
func (db *Database) ctx() context.Context { return db.snap.Load().opts.Ctx }

// Instance computes the current database instance I (the persistent rules
// applied to E) and returns its facts.
func (db *Database) Instance() ([]Fact, error) {
	f, err := db.snap.Load().derived()
	if err != nil {
		return nil, err
	}
	return f.AppendAll(nil), nil
}

// InstanceString renders the current instance deterministically.
func (db *Database) InstanceString() (string, error) {
	s := db.snap.Load()
	f, err := s.derived()
	if err != nil {
		return "", err
	}
	return engine.ToInstance(f, s.st.S, 0).String(), nil
}

// Count reports the number of facts of a predicate in the current
// instance (derived facts included).
func (db *Database) Count(pred string) (int, error) {
	f, err := db.snap.Load().derived()
	if err != nil {
		return 0, err
	}
	return f.Size(types.Canon(pred)), nil
}

// stateSnapshot is one published state as a read or an application
// attempt sees it. A commit replaces the published state and its
// maintainer and never writes either, so a snapshot needs no lock once
// it is taken: I is R applied to E (§4.2), a function of the state
// alone.
type stateSnapshot struct {
	st    *module.State
	epoch uint64 // the commit epoch st was published at
	opts  engine.Options
	// maint serves st under WithIncremental: its frozen derived set is
	// R(E), and its program answers goals over it.
	maint *engine.Maintainer
}

// derived returns R(E) of the snapshot's state: the maintained set when
// a maintainer serves it, a from-scratch evaluation otherwise. Neither
// re-audits the state, which was audited when it entered the database.
func (s *stateSnapshot) derived() (*engine.FactSet, error) {
	if s.maint != nil {
		return s.maint.Full(), nil
	}
	return s.st.Derive(s.opts)
}

// EDBCount reports the number of extensional facts of a predicate.
func (db *Database) EDBCount(pred string) int {
	return db.snap.Load().st.E.Size(types.Canon(pred))
}

// RuleCount reports the number of persistent rules.
func (db *Database) RuleCount() int {
	return len(db.snap.Load().st.R)
}

// Materialize makes E coincide with the current instance and clears the
// persistent rules (§4.2, "materializing the instance"). It derives
// against a snapshot outside the write lock and commits as a whole-state
// replacement through the application protocol (concurrent.go), so a
// commit landing meanwhile makes it retry; with retries disabled
// (WithMaxRetries(-1)) that surfaces as a *ConflictError.
func (db *Database) Materialize() error {
	_, err := db.apply(db.ctx(), target{materialize: true}, nil)
	return err
}

// CheckConsistency verifies Definition 4 and the passive constraints
// against the current instance.
func (db *Database) CheckConsistency() error {
	s := db.snap.Load()
	return s.st.Audit(s.opts)
}

// Save writes a snapshot of the database state.
func (db *Database) Save(w io.Writer) error {
	return storage.SaveState(w, db.snap.Load().st)
}

// Load reads a snapshot written by Save.
func Load(r io.Reader, options ...Option) (*Database, error) {
	st, err := storage.LoadState(r)
	if err != nil {
		return nil, err
	}
	db, err := newDatabase(storage.NewCommitLog(0), options)
	if err != nil {
		return nil, err
	}
	if err := db.start(st, true); err != nil {
		return nil, err
	}
	return db, nil
}

// Schema renders the current schema in LOGRES syntax.
func (db *Database) Schema() string {
	return db.snap.Load().st.S.String()
}

// Register parses a named module and stores it in the database's module
// library without applying it — the paper's §5 "methods and
// encapsulation" direction: a stored module is an encapsulated query or
// update procedure invoked with Call. Snapshots persist the library.
// A registration is a commit (concurrent.go, commitLocked): it takes a
// commit epoch, a WAL record on a durable database, and an empty diff
// for every live subscription.
func (db *Database) Register(src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Concurrent applications hold snapshots of the current state, so the
	// registration builds a successor state; bumping the commit epoch
	// makes an in-flight whole-state replacement retry instead of
	// dropping it.
	next, err := db.snap.Load().st.Register(m)
	if err != nil {
		return err
	}
	sr := &module.SnapshotResult{Res: &module.Result{State: next}, Registered: m}
	_, _, _, _, err = db.commitLocked(db.opts, db.log.Epoch(), sr)
	return err
}

// Call applies a registered module by name with its declared mode.
func (db *Database) Call(name string, options ...CallOption) (*Result, error) {
	return db.CallContext(db.ctx(), name, options...)
}

// CallContext is Call under an explicit cancellation context. Each
// attempt looks the module up in the library of the state it evaluates
// against.
func (db *Database) CallContext(ctx context.Context, name string, options ...CallOption) (*Result, error) {
	return db.apply(ctx, target{name: name}, options)
}

// Modules lists the registered module names.
func (db *Database) Modules() []string {
	lib := db.snap.Load().st.Lib
	if lib == nil {
		return nil
	}
	return lib.Names()
}

// Explain evaluates the current instance with a fork of the persistent
// program and renders the program structure (strata, generated
// constraints, invention) together with the run's statistics — the §5
// "design, debugging, and monitoring" tooling.
func (db *Database) Explain() (string, error) {
	s := db.snap.Load()
	prog, err := s.st.Program(s.opts)
	if err != nil {
		return "", err
	}
	counter := s.st.Counter
	if _, err := prog.Run(s.st.E, &counter); err != nil {
		return "", err
	}
	return prog.Explain(), nil
}
