package module

import (
	"sort"
	"strings"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/value"
)

// SnapshotResult is one optimistic application attempt, evaluated
// against a frozen snapshot outside the database lock. It carries
// everything the commit critical section needs: the effective footprint
// to validate, and either a fact-level delta to merge onto the current
// committed state (the concurrent fast path) or a whole-state
// replacement (rule/schema-changing modes, which conflict with every
// concurrent commit anyway).
type SnapshotResult struct {
	// Res is the ordinary Apply result against the snapshot.
	Res *Result
	// Footprint is the effective access set: the static analysis widened
	// by what the run actually touched ($oid$ when identity moved).
	Footprint guard.Footprint
	// Adds and Removes are the extensional delta E1 − E0 and E0 − E1,
	// valid when neither ReadOnly nor Replace is set. Commit order is
	// removes first, then adds.
	Adds, Removes []engine.Fact
	// CounterDelta is the oid-counter advance of the run.
	CounterDelta int64
	// ReadOnly marks an application with no state change (RIDI): commit
	// validates reads but installs nothing.
	ReadOnly bool
	// Replace marks an application whose commit must replace the whole
	// state (rule/schema changes): valid only when nothing committed
	// since the snapshot.
	Replace bool
	// Maintained, when set, is the maintainer of Res.State, stepped from
	// or built beside the snapshot's, whose set the application's audit
	// read.
	Maintained *Maintained
	// Registered, when set, marks a registration: Res.State is the
	// published state whose library gained this module (State.Register),
	// and the commit writes no predicate.
	Registered *ast.Module
}

// ApplySnapshot applies m to the snapshot state st and packages the
// outcome for optimistic commit. st must be a published snapshot: its
// fact set frozen, never mutated (Apply's clone discipline guarantees
// the application itself cannot touch it).
func ApplySnapshot(st *State, m *ast.Module, mode ast.Mode, opts engine.Options) (*SnapshotResult, error) {
	return ApplySnapshotMaintained(st, nil, m, mode, opts)
}

// ApplySnapshotDeferred is ApplySnapshot.
//
// Deprecated: use ApplySnapshot; no application defers its audit.
func ApplySnapshotDeferred(st *State, m *ast.Module, mode ast.Mode, opts engine.Options) (*SnapshotResult, error) {
	return ApplySnapshot(st, m, mode, opts)
}

// ApplySnapshotMaintained is ApplySnapshot against a snapshot that maint
// serves (nil: none). An application that changes the state gives its
// new state a maintainer (see successor) and audits over its set: a
// data-variant application that changes neither rules nor schema by the
// exact view delta, any other in full. Only a goal-only or rule-bearing
// RIDI, which changes nothing, runs as without maint.
func ApplySnapshotMaintained(st *State, maint *engine.Maintainer, m *ast.Module, mode ast.Mode, opts engine.Options) (*SnapshotResult, error) {
	// The application runs first, so a rejected module fails exactly as
	// Apply does, and the footprint reuses the programs it compiled.
	res, err := apply(st, m, mode, opts, maint)
	if err != nil {
		return nil, err
	}
	fp, err := footprint(st, m, mode, opts, res.State.S, res.prog, res.updateFP)
	if err != nil {
		return nil, err
	}
	sr := &SnapshotResult{Res: res, Footprint: *fp, Maintained: res.maint}
	if mode == ast.RIDI {
		sr.ReadOnly = true
		return sr, nil
	}
	// Rule- or schema-changing applications replace the whole state; the
	// remaining data variants computed their extensional delta and
	// commit as fact deltas.
	d := res.delta
	if d == nil {
		sr.Replace = true
		return sr, nil
	}

	sr.CounterDelta = res.State.Counter - st.Counter
	sr.Adds, sr.Removes = d.adds, d.removes
	// The delta widens the footprint with every predicate it touched
	// outside the static writes (a missed write makes it universal).
	if d.missed {
		sr.Footprint.Universal = true
	}
	widened := false
	for p := range d.changed {
		if res.State.S.IsFunction(p) {
			p = engine.FunctionStore(p)
		}
		if !containsStr(sr.Footprint.Writes, p) {
			sr.Footprint.Writes = append(sr.Footprint.Writes, p)
			widened = true
		}
	}

	touchedOID := sr.CounterDelta != 0
	if !touchedOID {
		// Class facts re-binding pre-existing oids (oid unification from
		// non-invented sources) touch object identity without advancing
		// the counter; serialize them through $oid$ so two such writers
		// cannot place one oid in disjoint hierarchies unseen.
		for _, f := range sr.Adds {
			if f.IsClass && f.OID <= value.OID(st.Counter) {
				touchedOID = true
				break
			}
		}
	}
	if touchedOID {
		sr.Footprint.Reads = append(sr.Footprint.Reads, PredOID)
		sr.Footprint.Writes = append(sr.Footprint.Writes, PredOID)
		widened = true
	}
	if widened {
		sr.Footprint.Normalize()
	}
	return sr, nil
}

// extDelta is the extensional delta of one data-variant application:
// adds = E1 − E0, removes = E0 − E1, grouped by predicate in name order.
type extDelta struct {
	adds, removes []engine.Fact
	// changed are the predicates the delta changes; missed reports that
	// one of them is outside the static writes.
	changed map[string]bool
	missed  bool
}

// diffFacts computes the delta between the snapshot extension e0 and the
// result extension e1, which the update program derived from a clone of
// e0. Every predicate is diffed: one whose store e1 still shares with e0
// costs one comparison, and any other is walked over the parts the two
// do not share, so the diff costs O(|Δ| log n) whatever the static writes
// say. A change outside them is an analysis miss, reported as missed.
func diffFacts(e0, e1 *engine.FactSet, writes []string) *extDelta {
	d := &extDelta{changed: map[string]bool{}}
	static := map[string]bool{}
	for _, p := range writes {
		// The write analysis names a data function by its store; the fact
		// set keeps its facts under the function's own name.
		p, _ = strings.CutPrefix(p, engine.FunctionStore(""))
		static[p] = true
	}
	union := map[string]bool{}
	for _, p := range e0.Preds() {
		union[p] = true
	}
	for _, p := range e1.Preds() {
		union[p] = true
	}
	preds := make([]string, 0, len(union))
	for p := range union {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		adds, removes := e1.DiffPred(e0, p)
		if len(adds)+len(removes) > 0 {
			d.adds = append(d.adds, adds...)
			d.removes = append(d.removes, removes...)
			d.changed[p] = true
			if !static[p] {
				d.missed = true
			}
		}
	}
	return d
}

func containsStr(s []string, p string) bool {
	for _, x := range s {
		if x == p {
			return true
		}
	}
	return false
}

// CommitDelta merges a validated snapshot delta onto the current
// committed state (State.WithDelta): the committed R, S and library are
// kept, since a delta commit never changes them. The returned state is
// freshly built and safe to publish.
func CommitDelta(committed *State, sr *SnapshotResult) *State {
	return committed.WithDelta(sr.Removes, sr.Adds, sr.CounterDelta)
}

// subtractionChangesRules reports whether removing sub from rules would
// actually shrink the persistent rule store.
func subtractionChangesRules(rules, sub []*ast.Rule) bool {
	return len(subtractRules(rules, sub)) != len(rules)
}
