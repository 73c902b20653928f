package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"logres/internal/ast"
)

// Incremental view maintenance (DESIGN.md §14). A Maintainer carries the
// per-stratum support state needed to update a program's derived fact
// set in time proportional to the base-fact delta instead of re-running
// the fixpoint: the counting algorithm for non-recursive strata and
// DRed-style delete/rederive for recursive ones (Gupta, Mumick &
// Subrahmanian, "Maintaining Views Incrementally").
//
// Only a prefix of the stratification is maintained incrementally: the
// first stratum whose rules fall outside the eligible fragment (oid
// invention, class or function heads, deletions, negated predicate
// literals, data-function reads) starts the *suffix*, which is always
// recomputed from scratch via Program.RunFrom on top of the maintained
// prefix. The split is per database, decided once at build time; a
// program with no eligible stratum degenerates to caching the last full
// evaluation, which is still enough to serve reads and subscriptions
// without re-deriving per query.
//
// A Maintainer is single-writer: Update and Rebuild must be externally
// serialized (the Database holds its write lock across them). The
// maintained full set is frozen after every update, so any number of
// readers may consult Full() concurrently with each other.

const (
	maintCounting = iota // non-recursive stratum: derivation counts
	maintDRed            // recursive stratum: delete/rederive
)

// maintPlan is the maintenance strategy and support state of one
// eligible stratum.
type maintPlan struct {
	kind      int
	stratum   []*crule
	heads     map[string]bool // predicates this stratum defines
	bodyPreds map[string]bool // positive predicate literals read by the stratum
	counts    map[string]int  // counting only: derivations per head-fact key
}

// Maintainer holds the incremental state of one program over one
// extensional database.
type Maintainer struct {
	prog  *Program
	plans []*maintPlan
	// suffix is the index of the first stratum that is recomputed from
	// scratch; len(strata) when the whole program is maintained.
	suffix int
	// owner maps every head predicate to the index of its defining
	// stratum (a predicate is defined in exactly one stratum: all rules
	// with the same head predicate share a dependency-graph node, hence
	// an SCC, hence a stratum).
	owner map[string]int
	// suffixHeads are the predicates the suffix recomputation can
	// change — the head predicates (including deletion targets) of every
	// suffix stratum.
	suffixHeads map[string]bool

	baseE *FactSet // the committed extensional set the state is synced to
	view  *FactSet // the materialized eligible prefix
	full  *FactSet // the complete derived set (== view when suffix is empty)
	// spare and catchUp double-buffer the view when the whole program is
	// maintained: spare is the view published two epochs ago — no longer
	// reachable by readers, since the Database's write lock serializes
	// Update against every maintained read and readers materialize their
	// results under the read lock — and catchUp is the net view change
	// that brings it up to the current view. Reusing it makes an update
	// O(delta): the spare's merged views and component indexes are
	// maintained in place instead of being cloned and rebuilt per commit.
	spare   *FactSet
	catchUp *ViewDelta
	// fullCounter is the oid counter after the full evaluation — what a
	// from-scratch run starting at the committed state counter would
	// leave behind, so ToInstance(full, schema, fullCounter) is
	// byte-identical to a recomputation.
	fullCounter int64
}

// ViewDelta is the exact fact-level difference of the full derived set
// across one Update: every fact that became derivable and every fact
// that ceased to be, each sorted by fact key, with no overlaps and no
// duplicates.
type ViewDelta struct {
	Adds    []Fact
	Removes []Fact
}

// Empty reports whether the delta changes nothing.
func (d *ViewDelta) Empty() bool { return len(d.Adds) == 0 && len(d.Removes) == 0 }

// Preds returns the predicates the delta changes.
func (d *ViewDelta) Preds() map[string]bool {
	preds := map[string]bool{}
	for _, fs := range [][]Fact{d.Adds, d.Removes} {
		for _, f := range fs {
			preds[f.Pred] = true
		}
	}
	return preds
}

// NewMaintainer builds the incremental maintenance state for prog over
// the extensional set e (which must be the committed, frozen base) and
// the committed oid counter. The program must be dedicated to the
// maintainer — Update and Rebuild run it — so callers compile their own
// Program rather than sharing one that serves queries concurrently.
func NewMaintainer(prog *Program, e *FactSet, counter int64) (*Maintainer, error) {
	m := &Maintainer{prog: prog, owner: map[string]int{}, suffixHeads: map[string]bool{}}
	m.suffix = len(prog.strata)
	if prog.opts.NonInflationary {
		// The non-inflationary operator deletes non-rederivable facts on
		// every step; no stratum is incrementally maintainable, and the
		// maintainer degenerates to a full-evaluation cache.
		m.suffix = 0
	} else {
		for i, stratum := range prog.strata {
			plan, ok := maintClassify(stratum)
			if !ok {
				m.suffix = i
				break
			}
			m.plans = append(m.plans, plan)
		}
	}
	for i, stratum := range prog.strata {
		for _, r := range stratum {
			if r.head != nil {
				m.owner[r.head.pred] = i
				if i >= m.suffix {
					m.suffixHeads[r.head.pred] = true
				}
			}
		}
	}
	if err := m.Rebuild(e, counter); err != nil {
		return nil, err
	}
	return m, nil
}

// maintClassify decides whether a stratum is incrementally maintainable
// and, if so, by which algorithm. The fragment is deliberately
// conservative — falling back to recomputation is always correct:
// association heads only (no oid invention, no o-value composition, no
// function-extension definitions), no deletions, no head tuple
// variables, no negated predicate literals, and no data-function reads.
// Non-recursive strata use counting; recursive ones use DRed.
func maintClassify(stratum []*crule) (*maintPlan, bool) {
	if len(stratum) == 0 {
		return &maintPlan{kind: maintCounting, heads: map[string]bool{}, bodyPreds: map[string]bool{}, counts: map[string]int{}}, true
	}
	heads := map[string]bool{}
	bodyPreds := map[string]bool{}
	for _, r := range stratum {
		h := r.head
		if h == nil || h.kind != hAssoc || h.negated || h.tupleVar != "" || r.inventive {
			return nil, false
		}
		for _, l := range r.body {
			switch l.kind {
			case pkClass, pkAssoc:
				if l.negated {
					return nil, false
				}
				bodyPreds[l.pred] = true
			case pkCompare, pkBuiltin:
				// Pure given the no-function-read condition below: they
				// evaluate over the bindings, never over the fact set.
			default:
				return nil, false
			}
		}
		if len(ruleFuncReadsAll(r)) > 0 {
			return nil, false
		}
		heads[h.pred] = true
	}
	kind := maintCounting
	for p := range heads {
		if bodyPreds[p] {
			kind = maintDRed
			break
		}
	}
	return &maintPlan{kind: kind, stratum: stratum, heads: heads, bodyPreds: bodyPreds, counts: map[string]int{}}, true
}

// EligibleStrata returns how many leading strata are incrementally
// maintained and the total stratum count.
func (m *Maintainer) EligibleStrata() (prefix, total int) {
	return m.suffix, len(m.prog.strata)
}

// Full returns the maintained full derived set. It is frozen; callers
// must treat it as read-only.
func (m *Maintainer) Full() *FactSet { return m.full }

// Counter returns the oid counter after the full evaluation.
func (m *Maintainer) Counter() int64 { return m.fullCounter }

// Query evaluates a conjunctive goal against the maintained derived set.
func (m *Maintainer) Query(goal []ast.Literal) (*Answer, error) {
	return m.prog.Query(m.full, goal)
}

// Program returns the maintained program, for auditing the maintained set
// (its passive constraints) under the lock that serializes Update.
func (m *Maintainer) Program() *Program { return m.prog }

// Rebuild discards all incremental state and recomputes it from the
// given committed base. Used at construction, after a fallback (an
// Update error leaves the maintainer inconsistent), and after commits
// the propagation rules do not cover (whole-state replacement).
func (m *Maintainer) Rebuild(e *FactSet, counter int64) error {
	m.baseE = e
	m.spare, m.catchUp = nil, nil
	view := e.Clone()
	for _, plan := range m.plans {
		plan.counts = map[string]int{}
		if err := m.initStratum(plan, view); err != nil {
			return err
		}
	}
	m.view = view
	return m.recomputeSuffix(counter)
}

// initStratum materializes one eligible stratum into view and seeds its
// support state. The derived set is identical to what the engine's own
// evaluation produces for the stratum: the eligible fragment is
// monotone, so the inflationary fixpoint is the classical least
// fixpoint.
func (m *Maintainer) initStratum(plan *maintPlan, view *FactSet) error {
	c := &evalCtx{p: m.prog, f: view, counter: new(int64)}
	if plan.kind == maintCounting {
		// Non-recursive: a single pass per rule enumerates every
		// derivation. Head facts cannot feed the stratum's own bodies.
		for _, r := range plan.stratum {
			err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
				fact, err := c.buildAssocFact(r.head, e)
				if err != nil {
					return err
				}
				plan.counts[fact.Key()]++
				view.Add(fact)
				return nil
			})
			if err != nil {
				return fmt.Errorf("%w (in rule %s)", err, r)
			}
		}
		return nil
	}
	// Recursive: a small semi-naive least fixpoint. DRed keeps no
	// per-derivation state; deletions rediscover support by rederivation.
	delta := NewFactSet()
	for _, r := range plan.stratum {
		err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
			fact, err := c.buildAssocFact(r.head, e)
			if err != nil {
				return err
			}
			if view.Add(fact) {
				delta.Add(fact)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	for delta.TotalSize() > 0 {
		next := NewFactSet()
		if err := m.deltaRound(c, plan, delta, view, view, func(fact Fact) error {
			if view.Add(fact) {
				next.Add(fact)
			}
			return nil
		}); err != nil {
			return err
		}
		delta = next
	}
	return nil
}

// deltaRound runs one delta-restricted round over a stratum: for every
// rule and every positive predicate position whose predicate occurs in
// delta, enumerate the valuations with that position over delta,
// earlier positions over pre, and later positions over post, and hand
// each derived head fact to emit.
func (m *Maintainer) deltaRound(c *evalCtx, plan *maintPlan, delta, pre, post *FactSet, emit func(Fact) error) error {
	for _, r := range plan.stratum {
		for pos, l := range r.body {
			if l.kind != pkClass && l.kind != pkAssoc {
				continue
			}
			if delta.Size(l.pred) == 0 {
				continue
			}
			err := c.matchBodyDeltaFirst(r.body, pos, delta, pre, post, newEnv(), func(e *env) error {
				fact, err := c.buildAssocFact(r.head, e)
				if err != nil {
					return err
				}
				return emit(fact)
			})
			if err != nil {
				return fmt.Errorf("%w (in rule %s)", err, r)
			}
		}
	}
	return nil
}

// matchBodyDeltaFirst enumerates the valuations of body with the
// positive predicate literal at position pos over delta, positions
// before it over pre, and positions after it over post. The delta
// literal — usually far more selective than a leading unbound scan —
// is enumerated first; the remaining literals keep their relative
// order, so every comparison and builtin still evaluates after all the
// predicate literals originally to its left, and the valuation set is
// order-independent (the eligible fragment has no negation).
func (c *evalCtx) matchBodyDeltaFirst(body []resolvedLit, pos int, delta, pre, post *FactSet, e *env, yield func(*env) error) error {
	return c.matchPositive(body[pos], delta, e, func(e2 *env) error {
		return c.matchBodyMixed(body, 0, pos, pre, post, e2, yield)
	})
}

// matchBodyMixed walks every body position except pos (already bound by
// matchBodyDeltaFirst): positions before pos match pre, positions after
// it match post. Non-predicate literals (comparisons, builtins)
// evaluate as usual.
func (c *evalCtx) matchBodyMixed(body []resolvedLit, i, pos int, pre, post *FactSet, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	if i == pos {
		return c.matchBodyMixed(body, i+1, pos, pre, post, e, yield)
	}
	next := func(e2 *env) error {
		return c.matchBodyMixed(body, i+1, pos, pre, post, e2, yield)
	}
	l := body[i]
	if (l.kind == pkClass || l.kind == pkAssoc) && !l.negated {
		src := post
		if i < pos {
			src = pre
		}
		return c.matchPositive(l, src, e, next)
	}
	return c.matchLit(l, e, next)
}

// recomputeSuffix re-evaluates the ineligible suffix (if any) on top of
// the maintained prefix and freezes the resulting full set for
// concurrent readers.
func (m *Maintainer) recomputeSuffix(counter int64) error {
	if m.suffix >= len(m.prog.strata) {
		m.full = m.view
		if mo := int64(m.view.MaxOID()); mo > counter {
			counter = mo
		}
		m.fullCounter = counter
		m.full.Freeze()
		return nil
	}
	c := counter
	// RunFrom evaluates a copy of its input, so m.view stays untouched.
	full, err := m.prog.RunFrom(context.Background(), m.suffix, m.view, &c)
	if err != nil {
		return err
	}
	m.full = full
	m.fullCounter = c
	m.full.Freeze()
	return nil
}

// Update propagates one committed base-fact delta (removes applied
// before adds, exactly the commit order) through the maintained prefix,
// recomputes the suffix when one exists, and returns the exact
// difference of the full derived set. newE is the newly committed
// (frozen) extensional set and counter the committed oid counter.
//
// On error the maintainer is inconsistent and must be Rebuilt before
// further use; the caller decides whether to pay for that eagerly or on
// the next commit.
func (m *Maintainer) Update(adds, removes []Fact, newE *FactSet, counter int64) (*ViewDelta, error) {
	vd, _, err := m.UpdateStaged(adds, removes, newE, counter)
	return vd, err
}

// UpdateStaged is Update for callers that audit the result before
// committing: alongside the delta it returns a rollback restoring the
// maintainer to its exact pre-update state (view, full set, support
// counts, base), for when commit-time validation rejects the update or
// the commit cannot be made durable. The rollback is valid only until
// the next Update, UpdateStaged, or Rebuild; on error it is nil and
// the maintainer must be Rebuilt as with Update.
func (m *Maintainer) UpdateStaged(adds, removes []Fact, newE *FactSet, counter int64) (*ViewDelta, func(), error) {
	prevView, prevFull := m.view, m.full
	prevBaseE, prevCounter := m.baseE, m.fullCounter
	undoCounts := map[*maintPlan]map[string]int{}

	// Normalize against the base the state is synced to: a remove of an
	// absent fact and an add of a present one are no-ops, and a fact
	// both removed and re-added (removes apply first) nets out.
	addKeys := map[string]bool{}
	for _, f := range adds {
		addKeys[f.Key()] = true
	}
	var effAdds, effRemoves []Fact
	for _, f := range removes {
		if m.baseE.Has(f) && !addKeys[f.Key()] {
			effRemoves = append(effRemoves, f)
		}
	}
	seen := map[string]bool{}
	for _, f := range adds {
		if k := f.Key(); !m.baseE.Has(f) && !seen[k] {
			seen[k] = true
			effAdds = append(effAdds, f)
		}
	}

	oldView, oldFull := m.view, m.full
	newView := m.takeScratch()
	waveAdds, waveRemoves := NewFactSet(), NewFactSet()
	pendAdds := map[int][]Fact{}
	pendRemoves := map[int][]Fact{}

	// Base changes to predicates owned by an eligible stratum are folded
	// into that stratum's pass (presence there also depends on derivation
	// support); everything else — pure extensional predicates and
	// suffix-owned ones — applies directly and joins the wave.
	for _, f := range effRemoves {
		if si, ok := m.owner[f.Pred]; ok && si < m.suffix {
			pendRemoves[si] = append(pendRemoves[si], f)
			continue
		}
		if newView.Remove(f) {
			waveRemoves.Add(f)
		}
	}
	for _, f := range effAdds {
		if si, ok := m.owner[f.Pred]; ok && si < m.suffix {
			pendAdds[si] = append(pendAdds[si], f)
			continue
		}
		if newView.Add(f) {
			waveAdds.Add(f)
		}
	}

	for si, plan := range m.plans {
		var err error
		if plan.kind == maintCounting {
			undo := map[string]int{}
			undoCounts[plan] = undo
			err = m.updateCounting(plan, pendAdds[si], pendRemoves[si], oldView, newView, waveAdds, waveRemoves, undo)
		} else {
			err = m.updateDRed(plan, pendAdds[si], pendRemoves[si], oldView, newView, waveAdds, waveRemoves)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	m.view = newView
	m.baseE = newE
	if err := m.recomputeSuffix(counter); err != nil {
		return nil, nil, err
	}

	// The net view change: the wave records every presence transition,
	// except that DRed's delete-then-rederive can put one fact in both
	// halves (net unchanged).
	viewDiff := &ViewDelta{}
	for _, p := range waveAdds.Preds() {
		for _, f := range waveAdds.Facts(p) {
			if !waveRemoves.Has(f) {
				viewDiff.Adds = append(viewDiff.Adds, f)
			}
		}
	}
	for _, p := range waveRemoves.Preds() {
		for _, f := range waveRemoves.Facts(p) {
			if !waveAdds.Has(f) {
				viewDiff.Removes = append(viewDiff.Removes, f)
			}
		}
	}

	vd := &ViewDelta{}
	if m.suffix >= len(m.prog.strata) {
		// The view is the full set, so the net wave is the exact
		// difference — and the retired view becomes the next update's
		// scratch copy, to be caught up by that same diff.
		vd.Adds, vd.Removes = viewDiff.Adds, viewDiff.Removes
		m.spare, m.catchUp = oldView, viewDiff
	} else {
		// The suffix can only change its own head predicates; everything
		// else changed exactly as the wave says. Diffing the affected
		// predicates of the two frozen full sets covers both.
		cand := map[string]bool{}
		for p := range m.suffixHeads {
			cand[p] = true
		}
		for _, p := range waveAdds.Preds() {
			cand[p] = true
		}
		for _, p := range waveRemoves.Preds() {
			cand[p] = true
		}
		preds := make([]string, 0, len(cand))
		for p := range cand {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			for _, f := range m.full.Facts(p) {
				if !oldFull.Has(f) {
					vd.Adds = append(vd.Adds, f)
				}
			}
			for _, f := range oldFull.Facts(p) {
				if !m.full.Has(f) {
					vd.Removes = append(vd.Removes, f)
				}
			}
		}
	}
	SortFactsByKey(vd.Adds)
	SortFactsByKey(vd.Removes)
	rollback := func() {
		m.view, m.full = prevView, prevFull
		m.baseE, m.fullCounter = prevBaseE, prevCounter
		// The scratch copy was consumed and mutated; the next update
		// falls back to cloning.
		m.spare, m.catchUp = nil, nil
		for plan, undo := range undoCounts {
			for k, v := range undo {
				if v == 0 {
					delete(plan.counts, k)
				} else {
					plan.counts[k] = v
				}
			}
		}
	}
	return vd, rollback, nil
}

// takeScratch returns the working copy an update mutates: the spare
// view double-buffer caught up to the current view when one is
// available — an O(delta) replay that preserves the spare's
// incrementally maintained merged views and component indexes — or a
// fresh clone otherwise. The spare is consumed either way, so an
// update that fails mid-propagation never leaves a half-mutated spare
// behind (the next update falls back to cloning).
func (m *Maintainer) takeScratch() *FactSet {
	sp, cu := m.spare, m.catchUp
	m.spare, m.catchUp = nil, nil
	if sp == nil || cu == nil {
		return m.view.Clone()
	}
	sp.Thaw()
	for _, f := range cu.Removes {
		sp.Remove(f)
	}
	for _, f := range cu.Adds {
		sp.Add(f)
	}
	if sp.TotalSize() != m.view.TotalSize() {
		// Defensive: the replay drifted from the published view (it never
		// should — the catch-up is the exact net difference).
		return m.view.Clone()
	}
	return sp
}

// updateCounting propagates a delta through one non-recursive stratum:
// a signed delta-position pass per rule computes the change in
// derivation count per head fact, and presence flips (a fact is present
// iff it is extensional or has positive support) extend the wave.
func (m *Maintainer) updateCounting(plan *maintPlan, pAdds, pRems []Fact, oldView, newView, waveAdds, waveRemoves *FactSet, undo map[string]int) error {
	type deltaEntry struct {
		fact Fact
		d    int
	}
	delta := map[string]*deltaEntry{}
	c := &evalCtx{p: m.prog, f: newView, counter: new(int64)}
	for _, signed := range []struct {
		fs *FactSet
		d  int
	}{{waveAdds, 1}, {waveRemoves, -1}} {
		sign := signed.d
		if err := m.deltaRound(c, plan, signed.fs, newView, oldView, func(fact Fact) error {
			k := fact.Key()
			de := delta[k]
			if de == nil {
				de = &deltaEntry{fact: fact}
				delta[k] = de
			}
			de.d += sign
			return nil
		}); err != nil {
			return err
		}
	}

	touched := map[string]Fact{}
	for k, de := range delta {
		touched[k] = de.fact
	}
	eAdd := map[string]bool{}
	eRem := map[string]bool{}
	for _, f := range pAdds {
		k := f.Key()
		touched[k] = f
		eAdd[k] = true
	}
	for _, f := range pRems {
		k := f.Key()
		touched[k] = f
		eRem[k] = true
	}
	keys := make([]string, 0, len(touched))
	for k := range touched {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fact := touched[k]
		d := 0
		if de := delta[k]; de != nil {
			d = de.d
		}
		cntOld := plan.counts[k]
		cntNew := cntOld + d
		if cntNew < 0 {
			return fmt.Errorf("engine: negative support count %d for %s", cntNew, fact)
		}
		inEold := m.baseE.Has(fact)
		inEnew := (inEold && !eRem[k]) || eAdd[k]
		presentOld := inEold || cntOld > 0
		presentNew := inEnew || cntNew > 0
		if cntNew != cntOld {
			undo[k] = cntOld
		}
		if cntNew == 0 {
			delete(plan.counts, k)
		} else {
			plan.counts[k] = cntNew
		}
		switch {
		case presentOld && !presentNew:
			if newView.Remove(fact) {
				waveRemoves.Add(fact)
			}
		case !presentOld && presentNew:
			if newView.Add(fact) {
				waveAdds.Add(fact)
			}
		}
	}
	return nil
}

// updateDRed propagates a delta through one recursive stratum with
// delete/rederive: (1) overestimate the deletions by closing the
// removed facts under the rules over the *old* view, (2) remove the
// overestimate and rederive every member that still has support
// (extensional or derivational) from surviving facts, to a fixpoint,
// (3) propagate the insertions semi-naively over the new view.
func (m *Maintainer) updateDRed(plan *maintPlan, pAdds, pRems []Fact, oldView, newView, waveAdds, waveRemoves *FactSet) error {
	c := &evalCtx{p: m.prog, f: newView, counter: new(int64)}
	eAdd := map[string]bool{}
	eRem := map[string]bool{}
	for _, f := range pAdds {
		eAdd[f.Key()] = true
	}
	for _, f := range pRems {
		eRem[f.Key()] = true
	}
	inEnew := func(f Fact) bool {
		k := f.Key()
		if eAdd[k] {
			return true
		}
		return m.baseE.Has(f) && !eRem[k]
	}

	// Phase 1: deletion overestimate over the old view.
	overdel := NewFactSet()
	frontier := NewFactSet()
	for _, f := range pRems {
		if oldView.Has(f) {
			overdel.Add(f)
			frontier.Add(f)
		}
	}
	for p := range plan.bodyPreds {
		if plan.heads[p] {
			continue // own heads enter via the closure below
		}
		for _, f := range waveRemoves.Facts(p) {
			frontier.Add(f)
		}
	}
	for frontier.TotalSize() > 0 {
		next := NewFactSet()
		if err := m.deltaRound(c, plan, frontier, oldView, oldView, func(fact Fact) error {
			if oldView.Has(fact) && overdel.Add(fact) {
				next.Add(fact)
			}
			return nil
		}); err != nil {
			return err
		}
		frontier = next
	}

	// Phase 2: delete the overestimate, then rederive survivors to a
	// fixpoint (a rederived fact can support further rederivations).
	pending := map[string]Fact{}
	for _, p := range overdel.Preds() {
		for _, f := range overdel.Facts(p) {
			newView.Remove(f)
			pending[f.Key()] = f
		}
	}
	for changed := true; changed; {
		changed = false
		keys := make([]string, 0, len(pending))
		for k := range pending {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f := pending[k]
			ok := inEnew(f)
			if !ok {
				var err error
				ok, err = m.derivable(c, plan, f, newView)
				if err != nil {
					return err
				}
			}
			if ok {
				newView.Add(f)
				delete(pending, k)
				changed = true
			}
		}
	}
	for _, f := range pending {
		waveRemoves.Add(f)
	}

	// Phase 3: insertions, semi-naive over the new view (which already
	// contains each frontier).
	frontier = NewFactSet()
	for p := range plan.bodyPreds {
		if plan.heads[p] {
			continue
		}
		for _, f := range waveAdds.Facts(p) {
			frontier.Add(f)
		}
	}
	for _, f := range pAdds {
		if newView.Add(f) {
			frontier.Add(f)
			waveAdds.Add(f)
		}
	}
	for frontier.TotalSize() > 0 {
		next := NewFactSet()
		if err := m.deltaRound(c, plan, frontier, newView, newView, func(fact Fact) error {
			if newView.Add(fact) {
				next.Add(fact)
				waveAdds.Add(fact)
			}
			return nil
		}); err != nil {
			return err
		}
		frontier = next
	}
	return nil
}

// derivable reports whether some rule of the stratum derives target
// from view. The head is pre-unified with the target where that is
// cheap (constant and variable components); every candidate valuation
// is verified by rebuilding the head fact.
func (m *Maintainer) derivable(c *evalCtx, plan *maintPlan, target Fact, view *FactSet) (bool, error) {
	saved := c.f
	c.f = view
	defer func() { c.f = saved }()
	targetKey := target.Key()
	for _, r := range plan.stratum {
		if r.head.pred != target.Pred {
			continue
		}
		e := newEnv()
		ruleOK := true
		for _, comp := range r.head.comps {
			v, found := target.Tuple.Get(comp.label)
			if !found {
				continue
			}
			ok, err := matchTerm(comp.term, v, e, view)
			if err != nil {
				// Not pre-bindable (e.g. arithmetic over unbound
				// variables); the rebuild check below still verifies.
				continue
			}
			if !ok {
				ruleOK = false
				break
			}
		}
		if !ruleOK {
			continue
		}
		found := false
		err := c.matchBody(r.body, 0, e, func(e2 *env) error {
			h, err := c.buildAssocFact(r.head, e2)
			if err != nil {
				return err
			}
			if h.Key() == targetKey {
				found = true
				return errStopEnum
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopEnum) {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}
