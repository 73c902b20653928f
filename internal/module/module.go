// Package module implements §4 of the paper: database states (E, R, S),
// LOGRES modules (R_M, S_M, G_M), and the six application modes RIDI,
// RADI, RDDI, RIDV, RADV, RDDV with their exact state-transition and
// consistency-or-reject semantics.
package module

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/instance"
	"logres/internal/obs"
	"logres/internal/types"
)

// State is a LOGRES database state: the triple (E, R, S) of extensional
// facts, persistent rules and schema, plus the oid-invention counter. The
// database *instance* is derived by applying R to E (§4.2) — a predicate
// may be defined partly extensionally and partly intensionally.
//
// A state memoises its persistent program, the compilation of (S, R):
// every run of it — a read, a commit's derivation, the maintainer — takes
// a fork of one compilation (see Program).
type State struct {
	E       *engine.FactSet
	R       []*ast.Rule
	S       *types.Schema
	Counter int64
	// Lib is the registry of named modules stored with the database (the
	// §5 "methods" direction); it evolves outside the (E, R, S) triple.
	Lib *Library

	memo atomic.Pointer[progMemo]
}

// progMemo holds the compilations of one (S, R) pair, one per setting of
// the options that fix a program's semantics. States with the same S
// and the same rules share it.
type progMemo struct {
	s     *types.Schema
	r     []*ast.Rule // the rule pointers, copied
	progs [1 << 3]atomic.Pointer[engine.Program]
}

// semanticsKey indexes progMemo.progs by the options Compile fixes.
func semanticsKey(opts engine.Options) int {
	k := 0
	for i, on := range [...]bool{opts.SemiNaive, opts.Vectorize, opts.NonInflationary} {
		if on {
			k |= 1 << i
		}
	}
	return k
}

// compiles reports whether the memo was compiled from st's S and R: the
// same schema and the same rules, compared pointer by pointer.
func (m *progMemo) compiles(st *State) bool {
	return m != nil && m.s == st.S && slices.Equal(m.r, st.R)
}

// NewState returns an empty consistent state over a schema.
func NewState(schema *types.Schema) *State {
	return &State{E: engine.NewFactSet(), S: schema, Lib: NewLibrary()}
}

// Clone returns a copy of the state whose E, R and Lib are its own. S is
// shared: a schema is never mutated once it is built.
func (st *State) Clone() *State {
	lib := st.Lib
	if lib != nil {
		lib = lib.Clone()
	}
	next := &State{
		E:       st.E.Clone(),
		R:       append([]*ast.Rule{}, st.R...),
		S:       st.S,
		Counter: st.Counter,
		Lib:     lib,
	}
	next.inherit(st)
	return next
}

// WithLib returns a state with st's E, R, S and counter and the library
// lib.
func (st *State) WithLib(lib *Library) *State {
	next := &State{E: st.E, R: st.R, S: st.S, Counter: st.Counter, Lib: lib}
	next.inherit(st)
	return next
}

// seed gives st, which nothing has read yet, prog as its compilation of
// (S, R) under opts' semantics.
func (st *State) seed(opts engine.Options, prog *engine.Program) {
	m := &progMemo{s: st.S, r: slices.Clone(st.R)}
	m.progs[semanticsKey(opts)].Store(prog)
	st.memo.Store(m)
}

// inherit gives st the compilations of from, a state its S and R may
// still equal: the memo is checked against them at every use.
func (st *State) inherit(from *State) {
	st.memo.Store(from.memo.Load())
}

// Program returns a fork of st's persistent program under opts,
// compiling (S, R) only when st holds no compilation of them under the
// options that fix the semantics. The first compilation is kept:
// concurrent callers on one published state compile at most once each
// and then share it.
func (st *State) Program(opts engine.Options) (*engine.Program, error) {
	prog, err := st.compiled(opts)
	if err != nil {
		return nil, err
	}
	return prog.Fork(opts), nil
}

// compiled is st's memoised compilation of (S, R) under opts' semantics,
// never run itself: callers fork it, or read its compiled part.
func (st *State) compiled(opts engine.Options) (*engine.Program, error) {
	m := st.memo.Load()
	if !m.compiles(st) {
		fresh := &progMemo{s: st.S, r: slices.Clone(st.R)}
		if st.memo.CompareAndSwap(m, fresh) {
			m = fresh
		} else if m = st.memo.Load(); !m.compiles(st) {
			m = fresh
		}
	}
	slot := &m.progs[semanticsKey(opts)]
	if prog := slot.Load(); prog != nil {
		return prog, nil
	}
	prog, err := engine.Compile(st.S, st.R, opts)
	if err != nil {
		return nil, err
	}
	if !slot.CompareAndSwap(nil, prog) {
		prog = slot.Load()
	}
	return prog, nil
}

// Instance computes the database instance I such that (E, I) ∈ 𝒯(R):
// the persistent rules applied to the extensional facts under the
// inflationary semantics. It verifies Definition 4 consistency and the
// passive constraints; an inconsistent instance is an error (the mapping
// M is partial, §4.1).
func (st *State) Instance(opts engine.Options) (_ *engine.FactSet, _ *instance.Instance, err error) {
	defer shieldPanic(&err)
	f, in, _, err := st.derive(opts)
	return f, in, err
}

// Derive computes R(E) and the oid counter its evaluation leaves,
// without the audit Instance performs: a read of a published state,
// which was audited when it entered the database.
func (st *State) Derive(opts engine.Options) (_ *engine.FactSet, _ int64, err error) {
	defer shieldPanic(&err)
	f, counter, _, err := st.run(opts)
	return f, counter, err
}

// run applies a fork of st's persistent program to E, returning R(E),
// the advanced oid counter and the fork, so a caller with a goal to
// answer queries the program that derived the facts. It does not audit
// R(E).
func (st *State) run(opts engine.Options) (*engine.FactSet, int64, *engine.Program, error) {
	prog, err := st.Program(opts)
	if err != nil {
		return nil, 0, nil, err
	}
	// The advanced counter is NOT written back to st — deriving the
	// instance is a pure read (oids invented while deriving it are not
	// part of the persistent state), which lets Database readers share a
	// lock.
	counter := st.Counter
	f, err := prog.Run(st.E, &counter)
	if err != nil {
		return nil, 0, nil, err
	}
	return f, counter, prog, nil
}

// derive is run followed by the audit Instance performs.
func (st *State) derive(opts engine.Options) (*engine.FactSet, *instance.Instance, *engine.Program, error) {
	f, counter, prog, err := st.run(opts)
	if err != nil {
		return nil, nil, nil, err
	}
	in := engine.ToInstance(f, st.S, counter)
	if err := auditFull(in, prog, f); err != nil {
		return nil, nil, nil, err
	}
	return f, in, prog, nil
}

// answer evaluates the module's goal, if it has one, over the derived
// facts with the program that derived them.
func (res *Result) answer(prog *engine.Program, f *engine.FactSet, goal []ast.Literal) error {
	if len(goal) == 0 {
		return nil
	}
	ans, err := prog.Query(f, goal)
	if err != nil {
		return err
	}
	res.Answer = ans
	return nil
}

// declaresNothing reports whether a module schema adds no type equation
// and no isa edge (nil counts).
func declaresNothing(s *types.Schema) bool {
	return s == nil || (len(s.Names()) == 0 && len(s.IsaEdges()) == 0)
}

// evolveSchema returns the schema an application of m, or its
// footprint analysis, runs under: S − S_M for the deleting modes and
// S ∪ S_M for the others, or S itself when that changes nothing (m
// declares nothing, or only what S already holds, or, deleting, only
// what S lacks). So the programs of the application, the new state and
// the next read share S's compilation and the schema whose isa steps E
// is marked closed under (engine.FactSet).
func evolveSchema(s *types.Schema, m *ast.Module, mode ast.Mode) (*types.Schema, error) {
	if declaresNothing(m.Schema) {
		return s, nil
	}
	var s1 *types.Schema
	if mode == ast.RDDV || mode == ast.RDDI {
		s1 = s.Subtract(m.Schema)
	} else {
		// RIDV adds S_M(EDB); RADV adds all of S_M. We add all of S_M in
		// both cases: the paper's S_M(EDB) is the subset describing new
		// EDB types, and adding unused equations is harmless.
		var err error
		if s1, err = s.Union(m.Schema); err != nil {
			return nil, err
		}
	}
	// Union only adds and Subtract only removes: equal sizes are equal
	// schemas.
	if len(s1.Names()) == len(s.Names()) && len(s1.IsaEdges()) == len(s.IsaEdges()) {
		return s, nil
	}
	return s1, nil
}

// Result is the outcome of a module application: the new database state
// (identical to the input state for data/rule-invariant aspects) and, for
// the data-invariant modes, the goal answer.
type Result struct {
	State  *State
	Answer *engine.Answer
	// Audit names the consistency audit the application ran on its new
	// instance: AuditDelta, or "full: <why>". Empty when it ran none (a
	// goal-only RIDI, or a deferred application, whose caller audits).
	Audit string

	// delta is the extensional delta of an application canDeferValidation
	// admits, computed once: the audit and the commit both use it.
	delta *extDelta
	// prog is the persistent program of the new state (a deferred
	// application's is the unforked compilation, which it never runs),
	// and updateFP the footprint of the update program R_M of a
	// data-variant mode. ApplySnapshot builds its footprint from them
	// instead of compiling either again.
	prog     *engine.Program
	updateFP *engine.RuleFootprint
}

// Apply applies module m to state st with the given mode. It never mutates
// st: on success the result carries the new state; on rejection
// (inconsistent new instance) the error describes the violation and the
// original state remains valid. mode overrides the module's declared
// default; pass m.Mode (or use ApplyDeclared) to honour the declaration.
//
// Apply trusts that st itself passed the audit — every state a database
// publishes did, when it entered (commit, Load, recovery). A goal-only
// RIDI therefore audits nothing, and a data-variant application that
// changes neither rules nor schema audits only what its extensional
// delta can have broken (see AuditInstanceDelta); against a state built
// past the audit, such an application can be accepted although the full
// audit of its result would fail on the inherited violation.
func Apply(st *State, m *ast.Module, mode ast.Mode, opts engine.Options) (*Result, error) {
	return apply(st, m, mode, opts, false)
}

// apply is Apply; with deferValidation a data-variant application that
// canDeferValidation admits skips its final instance audit, and the
// caller must audit the new state before committing it
// (ApplySnapshotDeferred).
func apply(st *State, m *ast.Module, mode ast.Mode, opts engine.Options, deferValidation bool) (res *Result, err error) {
	// Application is all-or-nothing: every mode that changes anything works
	// on a clone of st, so on any abort — budget, cancellation, or a panic
	// converted here — the caller's state is bit-identical to its
	// pre-application snapshot.
	defer shieldPanic(&err)
	if t := opts.Tracer; t != nil {
		t.Event(obs.Event{Kind: obs.KindModuleBegin, Pred: m.Name, Detail: mode.String(),
			Count: len(m.Rules)})
		start := time.Now()
		defer func() {
			ev := obs.Event{Kind: obs.KindModuleEnd, Pred: m.Name, Detail: mode.String(),
				Duration: time.Since(start)}
			if err != nil {
				ev.Detail = mode.String() + ": " + err.Error()
			} else if res != nil { // nil while a panic unwinds to shieldPanic
				ev.Reason = res.Audit
			}
			t.Event(ev)
		}()
	}
	if !mode.HasGoal() && len(m.Goal) > 0 {
		return nil, fmt.Errorf("module: mode %s does not admit a goal (§4.1)", mode)
	}
	if m.NonInflationary {
		// §1: modules are parametric in the semantics of their rules.
		opts.NonInflationary = true
	}
	switch mode {
	case ast.RIDI:
		return applyRIDI(st, m, opts)
	case ast.RADI:
		return applyRuleChange(st, m, opts, true)
	case ast.RDDI:
		return applyRuleChange(st, m, opts, false)
	case ast.RIDV, ast.RADV, ast.RDDV:
		return applyDataVariant(st, m, opts, mode, deferValidation)
	}
	return nil, fmt.Errorf("module: unknown mode %v", mode)
}

// canDeferValidation reports whether applying m to st with mode is
// eligible for deferred validation: a data-variant application that
// changes neither the schema nor the persistent rules, so the new
// state differs from st only in (E, Counter). Such an application
// computes its extensional delta once and audits only what the delta
// changed — inside Apply, or, for a caller maintaining the derived
// instance incrementally, at commit time against the maintained set
// (ApplySnapshotDeferred). The predicate agrees exactly with the
// delta/Replace split of ApplySnapshot: eligible applications are the
// ones that would take the delta path.
func canDeferValidation(st *State, m *ast.Module, mode ast.Mode) bool {
	if !mode.DataVariant() || !declaresNothing(m.Schema) {
		return false
	}
	switch mode {
	case ast.RADV:
		if len(m.Rules) > 0 {
			return false
		}
	case ast.RDDV:
		if subtractionChangesRules(st.R, m.Rules) {
			return false
		}
	}
	return true
}

// ApplyDeclared applies the module with its declared mode (RIDI when none
// was declared).
func ApplyDeclared(st *State, m *ast.Module, opts engine.Options) (*Result, error) {
	return Apply(st, m, m.Mode, opts)
}

// applyRIDI — Rule Invariant, Data Invariant: an ordinary query. S_M and
// R_M are added temporarily, the goal is evaluated over R0 ∪ RM against
// E0, and the state does not change.
func applyRIDI(st *State, m *ast.Module, opts engine.Options) (*Result, error) {
	res := &Result{State: st}
	if declaresNothing(m.Schema) && len(m.Rules) == 0 {
		// A module that brings only a goal — every Database.Query — reads
		// the state as it is. A state is audited once, when it enters the
		// database (commit, Load, recovery), so its R(E) is consistent:
		// compile, run and answer, nothing else.
		f, _, prog, err := st.run(opts)
		if err != nil {
			return nil, err
		}
		res.prog = prog
		return res, res.answer(prog, f, m.Goal)
	}
	// R0 ∪ RM over S0 ∪ SM is a program no commit ever audited. The work
	// state only reads E and the library, so it shares them.
	s1, err := evolveSchema(st.S, m, ast.RIDI)
	if err != nil {
		return nil, err
	}
	if err := s1.Validate(); err != nil {
		return nil, err
	}
	work := &State{E: st.E, R: append(append([]*ast.Rule{}, st.R...), m.Rules...), S: s1, Counter: st.Counter, Lib: st.Lib}
	if s1 == st.S {
		// The module declares nothing: R0 comes compiled from st's
		// program, and only RM compiles. An R0 that does not compile
		// fails below, where the work state derives.
		if persistent, err := st.compiled(opts); err == nil {
			prog, err := persistent.Extend(m.Rules, opts)
			if err != nil {
				return nil, err
			}
			work.seed(opts, prog)
		}
	}
	f, _, prog, err := work.derive(opts)
	if err != nil {
		return nil, err
	}
	res.Audit, res.prog = auditRulesSchema, prog
	return res, res.answer(prog, f, m.Goal)
}

// applyRuleChange — RADI adds (RDDI deletes) rules and type equations in
// the persistent state; E is untouched. The new state must yield a
// consistent instance or the update is rejected.
func applyRuleChange(st *State, m *ast.Module, opts engine.Options, add bool) (*Result, error) {
	next := st.Clone()
	mode := ast.RADI
	if add {
		next.R = append(next.R, m.Rules...)
	} else {
		mode = ast.RDDI
		next.R = subtractRules(next.R, m.Rules)
	}
	s1, err := evolveSchema(st.S, m, mode)
	if err != nil {
		return nil, err
	}
	next.S = s1
	if err := next.S.Validate(); err != nil {
		return nil, fmt.Errorf("module: rejected, schema invalid: %w", err)
	}
	f, _, prog, err := next.derive(opts)
	if err != nil {
		return nil, fmt.Errorf("module: rejected: %w", err)
	}
	res := &Result{State: next, Audit: auditRulesSchema, prog: prog}
	return res, res.answer(prog, f, m.Goal)
}

// applyDataVariant — the three EDB-updating modes. E1 is computed by
// applying the update rules R_M to E0 (with the active constraints
// generated from the schema); the persistent rules evolve per mode. No
// goal answer is provided (§4.1). With deferValidation the final
// instance computation and audit are skipped and the caller must
// validate before committing.
func applyDataVariant(st *State, m *ast.Module, opts engine.Options, mode ast.Mode, deferValidation bool) (*Result, error) {
	// E1 replaces E0 below (Run and Minus build fresh sets, leaving E0
	// untouched), so E0 is not copied; the schema is replaced too, and the
	// library is copied on write by Register.
	next := &State{E: st.E, R: append([]*ast.Rule{}, st.R...), S: st.S, Counter: st.Counter, Lib: st.Lib}
	next.inherit(st)
	s1, err := evolveSchema(st.S, m, mode)
	if err != nil {
		return nil, err
	}
	if err := s1.Validate(); err != nil {
		return nil, fmt.Errorf("module: rejected, schema invalid: %w", err)
	}

	switch mode {
	case ast.RIDV:
		// Rules unchanged.
	case ast.RADV:
		next.R = append(next.R, m.Rules...)
	case ast.RDDV:
		next.R = subtractRules(next.R, m.Rules)
	}

	prog, err := updateProgram(st, s1, m.Rules, opts)
	if err != nil {
		return nil, err
	}
	counter := next.Counter
	if mode == ast.RDDV {
		// E1 = E0 − EM, where EM is the instance of (∅, R_M).
		em, err := prog.Run(engine.NewFactSet(), &counter)
		if err != nil {
			return nil, err
		}
		next.E = next.E.Minus(em)
	} else {
		// E1 = R_M applied to E0.
		if next.E, err = prog.Run(next.E, &counter); err != nil {
			return nil, err
		}
	}
	next.Counter = counter
	next.S = s1

	rf := prog.Footprint()
	res := &Result{State: next, updateFP: &rf}
	if !canDeferValidation(st, m, mode) {
		// New rules or schema: R(E1) comes from a program no commit audited.
		if _, _, res.prog, err = next.derive(opts); err != nil {
			return nil, fmt.Errorf("module: rejected: %w", err)
		}
		res.Audit = auditRulesSchema
		return res, nil
	}
	// (R, S) unchanged: the state differs from st only in (E, Counter), so
	// only what the delta changed can be inconsistent.
	res.delta = diffFacts(st.E, next.E, rf.Writes)
	if deferValidation {
		// The footprint still reads the persistent program: st's, whose S
		// and R next shares.
		res.prog, err = next.compiled(opts)
		return res, err
	}
	d := res.delta
	f, fcounter, pprog, err := next.run(opts)
	res.prog = pprog
	if err == nil {
		// A persistent rule that sees the write can make the instance delta
		// differ from the extensional one. A class fact in the delta takes
		// AuditInstanceDelta's full audit, under that reason.
		if why := pprog.DeltaBlocker(d.changed); why != "" && !classFactIn(next.S, d.changed) {
			res.Audit, err = auditFullBecause(why, next.S, pprog, f, fcounter)
		} else {
			res.Audit, err = AuditInstanceDelta(next.S, pprog, f, fcounter, d.adds, d.changed)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("module: rejected: %w", err)
	}
	return res, nil
}

// updateProgram compiles the update rules R_M of a data-variant
// application under s1. When s1 is st's own schema — the module declares
// nothing — the isa steps come compiled from st's persistent program.
func updateProgram(st *State, s1 *types.Schema, rules []*ast.Rule, opts engine.Options) (*engine.Program, error) {
	if s1 != st.S {
		return engine.Compile(s1, rules, opts)
	}
	persistent, err := st.compiled(opts)
	if err != nil {
		// An R that does not compile fails the application later, where
		// it derives R(E1).
		return engine.Compile(s1, rules, opts)
	}
	return persistent.CompileOver(rules, opts)
}

// shieldPanic converts an evaluation panic into a *guard.PanicError so a
// poisoned rule can never take down the process or leave a half-applied
// state; the clone discipline of Apply makes the abort side-effect-free.
func shieldPanic(err *error) {
	if rec := recover(); rec != nil {
		*err = &guard.PanicError{Value: rec, Stack: debug.Stack()}
	}
}

// subtractRules removes rules structurally equal to any of sub.
func subtractRules(rules, sub []*ast.Rule) []*ast.Rule {
	drop := map[string]bool{}
	for _, r := range sub {
		drop[r.String()] = true
	}
	var out []*ast.Rule
	for _, r := range rules {
		if !drop[r.String()] {
			out = append(out, r)
		}
	}
	return out
}

// Materialize implements the §4.2 idiom "materializing the instance": the
// persistent rules are applied once in RIDV fashion so that E coincides
// with I, and R is cleared.
func Materialize(st *State, opts engine.Options) (*State, error) {
	mod := &ast.Module{Schema: types.NewSchema(), Rules: st.R}
	res, err := Apply(st, mod, ast.RIDV, opts)
	if err != nil {
		return nil, err
	}
	res.State.R = nil
	return res.State, nil
}
