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

// ConflictError is the typed error an optimistic concurrent module
// application (ApplyConcurrent / ExecConcurrent) with retries disabled
// surfaces when its commit validation failed; it names the conflicting
// predicate and carries both footprints. Retrieve it with errors.As.
type ConflictError = engine.ConflictError

// Footprint is the predicate-level read/write access set concurrent
// module applications validate against each other.
type Footprint = engine.Footprint

// Axis names one budget dimension in a BudgetError.
type Axis = engine.Axis

// The budget axes a BudgetError can name (AxisRetries appears only in
// the abort trace event of a concurrent application that conflicted with
// retries disabled — the error itself is a *ConflictError).
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

// WithSemiNaive toggles the semi-naive optimization (default on).
func WithSemiNaive(on bool) Option {
	return func(db *Database) { db.opts.SemiNaive = on }
}

// WithStratification toggles perfect-model (stratified) evaluation
// (default on); when off, programs evaluate as a single inflationary
// block.
func WithStratification(on bool) Option {
	return func(db *Database) { db.opts.Stratify = on }
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
// bit-identical either way — the row engine remains the semantics
// oracle, and WithVectorize(false) selects it for every stratum.
func WithVectorize(on bool) Option {
	return func(db *Database) { db.opts.Vectorize = on }
}

// Database is a LOGRES database: a state (E, R, S) evolved by module
// applications. All methods are safe for concurrent use: read-only
// methods (Query, Instance, Count, Save, …) share an RWMutex read lock
// and run concurrently with each other; module applications take the
// write lock and serialize. The published extensional fact set is kept
// frozen (engine.FactSet.Freeze) so concurrent readers share its indexes
// without lazy mutation.
type Database struct {
	mu   sync.RWMutex
	st   *module.State
	opts engine.Options
	// tracer/metrics are the configured observability sinks; the engine
	// sees their fan-out through opts.Tracer (see rewireTracer).
	tracer  Tracer
	metrics *Metrics
	// log is the committed-write log backing optimistic concurrent
	// application: every state-changing commit records its write
	// footprint at a fresh epoch; ApplyConcurrent validates against the
	// entries committed since its snapshot.
	log *storage.CommitLog
	// store, when non-nil, is the durable half (OpenDurable): every
	// commit appends one WAL record at its epoch before acknowledging.
	store *storage.Store
	// recovery is the report of the recovery that opened this database
	// (nil for fresh or non-durable databases).
	recovery *RecoveryReport
	// Incremental view maintenance (view.go): with WithIncremental the
	// maintainer keeps the derived instance materialized across commits
	// and reads serve from it; maintFP fingerprints the (R, S) pair its
	// program was compiled from; maintErr poisons the fast path after an
	// unrecoverable rebuild (reads fall back to from-scratch).
	incremental bool
	maint       *engine.Maintainer
	maintFP     string
	maintErr    error
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

// publish freezes the state's extensional facts and installs it as the
// current state. Callers must hold the write lock (or be the sole owner,
// as in Open/Load).
func (db *Database) publish(st *module.State) {
	st.E.Freeze()
	db.st = st
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
	db.publish(module.NewState(m.Schema))
	if err := db.maintInit(); err != nil {
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

// ApplyContext is Apply under an explicit cancellation context. A serial
// application is the locked attempt of the optimistic protocol
// (applyLocked): it holds the write lock from snapshot to commit, so it
// cannot conflict, and it commits exactly as a concurrent attempt does —
// a data-variant module that changes neither rules nor schema as a fact
// delta recording its own write set, any other state change as a
// whole-state replacement.
func (db *Database) ApplyContext(ctx context.Context, m *Module, mode Mode, options ...CallOption) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applySerial(ctx, m, mode, options)
}

// applySerial resolves the call's options and runs applyLocked; the
// caller holds the write lock.
func (db *Database) applySerial(ctx context.Context, m *Module, mode Mode, options []CallOption) (*Result, error) {
	opts := applyCallOptions(db.opts, options)
	opts.Ctx = ctx
	finish := instrumentCall(ctx, &opts, options)
	defer finish()
	sr, _, err := db.applyLocked(opts, m, mode)
	if err != nil {
		return nil, err
	}
	return &Result{Answer: sr.Res.Answer, Mode: mode}, nil
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
	m := &ast.Module{Schema: types.NewSchema(), Goal: goal}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if len(options) == 0 {
		// Option-free goals serve straight from the maintained derived
		// set — no per-call budget or profile to honor, and the program
		// is the same one a from-scratch RIDI application would compile.
		if _, _, ok := db.maintRead(); ok {
			return db.maint.Query(goal)
		}
	}
	opts := applyCallOptions(db.opts, options)
	opts.Ctx = ctx
	finish := instrumentCall(ctx, &opts, options)
	defer finish()
	res, err := module.Apply(db.st, m, ast.RIDI, opts)
	if err != nil {
		return nil, err
	}
	return res.Answer, nil
}

// ctx returns the database's configured evaluation context (nil is fine:
// the engine treats it as context.Background()).
func (db *Database) ctx() context.Context { return db.opts.Ctx }

// Instance computes the current database instance I (the persistent rules
// applied to E) and returns its facts.
func (db *Database) Instance() ([]Fact, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, _, err := db.derived()
	if err != nil {
		return nil, err
	}
	var out []Fact
	for _, p := range f.Preds() {
		out = append(out, f.Facts(p)...)
	}
	return out, nil
}

// InstanceString renders the current instance deterministically.
func (db *Database) InstanceString() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, counter, err := db.derived()
	if err != nil {
		return "", err
	}
	return engine.ToInstance(f, db.st.S, counter).String(), nil
}

// Count reports the number of facts of a predicate in the current
// instance (derived facts included).
func (db *Database) Count(pred string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, _, err := db.derived()
	if err != nil {
		return 0, err
	}
	return f.Size(types.Canon(pred)), nil
}

// derived returns R(E) of the published state and the oid counter its
// evaluation leaves: the maintained set when the incremental fast path
// can serve it, a from-scratch evaluation otherwise. Neither re-audits
// the state, which was audited when it entered the database. Callers
// hold the read lock.
func (db *Database) derived() (*engine.FactSet, int64, error) {
	if f, counter, ok := db.maintRead(); ok {
		return f, counter, nil
	}
	return db.st.Derive(db.opts)
}

// EDBCount reports the number of extensional facts of a predicate.
func (db *Database) EDBCount(pred string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.st.E.Size(types.Canon(pred))
}

// RuleCount reports the number of persistent rules.
func (db *Database) RuleCount() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.st.R)
}

// Materialize makes E coincide with the current instance and clears the
// persistent rules (§4.2, "materializing the instance").
func (db *Database) Materialize() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	st, err := module.Materialize(db.st, db.opts)
	if err != nil {
		return err
	}
	sr := &module.SnapshotResult{Res: &module.Result{State: st}, Replace: true}
	_, _, _, _, err = db.commitLocked(db.opts, db.log.Epoch(), sr)
	return err
}

// CheckConsistency verifies Definition 4 and the passive constraints
// against the current instance.
func (db *Database) CheckConsistency() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, _, err := db.st.Instance(db.opts)
	return err
}

// Save writes a snapshot of the database state.
func (db *Database) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return storage.SaveState(w, db.st)
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
	if err := db.publishDecoded(st); err != nil {
		return nil, err
	}
	return db, nil
}

// publishDecoded publishes a state that enters the database without a
// commit — a loaded snapshot, or a recovered snapshot plus WAL replay —
// and builds the maintenance state over it. Reads trust that every
// published state was audited, so this one is audited here, once:
// Definition 4 consistency and the passive constraints, under the
// database's budget but no context (maintOptions). The caller is the
// sole owner of db.
func (db *Database) publishDecoded(st *module.State) error {
	db.publish(st)
	if _, _, err := st.Instance(maintOptions(db.opts)); err != nil {
		return err
	}
	return db.maintInit()
}

// Schema renders the current schema in LOGRES syntax.
func (db *Database) Schema() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.st.S.String()
}

// Register parses a named module and stores it in the database's module
// library without applying it — the paper's §5 "methods and
// encapsulation" direction: a stored module is an encapsulated query or
// update procedure invoked with Call. Snapshots persist the library.
func (db *Database) Register(src string) error {
	m, err := parser.ParseModule(src)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Copy-on-write: concurrent applications hold snapshots of db.st and
	// may clone its library outside the lock, so the published state is
	// never mutated in place — a fresh state with a cloned library is
	// built and swapped in. The empty-footprint record bumps the commit
	// epoch so an in-flight whole-state replacement (rule/schema-changing
	// commit) cannot silently drop the registration.
	lib := db.st.Lib
	if lib == nil {
		lib = module.NewLibrary()
	} else {
		lib = lib.Clone()
	}
	if err := lib.Register(m); err != nil {
		return err
	}
	if err := db.walAppendRegister(db.log.Epoch()+1, m); err != nil {
		return err
	}
	next := *db.st
	next.Lib = lib
	db.st = &next
	db.log.Record(engine.Footprint{})
	db.maintAfterRegister(db.opts.Tracer)
	return nil
}

// Call applies a registered module by name with its declared mode.
func (db *Database) Call(name string, options ...CallOption) (*Result, error) {
	return db.CallContext(db.ctx(), name, options...)
}

// CallContext is Call under an explicit cancellation context.
func (db *Database) CallContext(ctx context.Context, name string, options ...CallOption) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, err := db.st.Lib.Lookup(name)
	if err != nil {
		return nil, err
	}
	return db.applySerial(ctx, m, m.Mode, options)
}

// Modules lists the registered module names.
func (db *Database) Modules() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.st.Lib == nil {
		return nil
	}
	return db.st.Lib.Names()
}

// Explain compiles the persistent rules, evaluates the current instance,
// and renders the program structure (strata, generated constraints,
// invention) together with the run's statistics — the §5 "design,
// debugging, and monitoring" tooling.
func (db *Database) Explain() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	prog, err := engine.Compile(db.st.S, db.st.R, db.opts)
	if err != nil {
		return "", err
	}
	counter := db.st.Counter
	if _, err := prog.Run(db.st.E, &counter); err != nil {
		return "", err
	}
	return prog.Explain(), nil
}
