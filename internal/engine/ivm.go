package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Incremental view maintenance (DESIGN.md §14). A Maintainer updates a
// program's derived fact set in time proportional to the base-fact
// delta instead of re-running the fixpoint, by one algorithm for every
// maintained stratum, recursive or not: DRed-style delete/rederive
// (Gupta, Mumick & Subrahmanian, "Maintaining Views Incrementally").
// Before DRed over-deletes, it checks the facts that lost a derivation
// directly for another one, the first step of Motik, Nenov, Piro &
// Horrocks's Backward/Forward algorithm, and over-deletes only from
// those that have none (updateDRed). On a non-recursive stratum that
// check is the whole support test. No per-derivation state is kept.
//
// Only a prefix of the stratification is maintained incrementally: the
// program's stratum plan (plan.go) marks each stratum maintained or not
// with a reason, and the first stratum outside the maintained fragment
// starts the *suffix*. A rebuild (NewMaintainer) is one ordinary run of
// the program, its view taken before the suffix; each Next recomputes
// the suffix from scratch via Program.RunFrom on top of the maintained
// prefix. A program with no maintained stratum degenerates to caching
// the last full evaluation, which is still enough to serve reads and
// subscriptions without re-deriving per query. Propagation joins
// through deltaPass, the semi-naive row loop's delta pass.
//
// A Maintainer is a value: Next returns the successor for one commit and
// leaves its receiver intact, on error too, so a maintainer serves its
// state for as long as anyone holds it and nothing is ever reverted. A
// successor shares what the step did not touch through the frozen fact
// sets' own copy-on-write. Next writes nothing its receiver shares: the
// view and the full set are frozen, DRed reads only the compiled part of
// the program, and the suffix runs on a fork of it. So any number of
// Next calls from one maintainer may run at once, beside goals answered
// over a Full() set with Program().Query: the Database's concurrent
// attempts each step the maintainer of their snapshot.

// Maintainer holds the incremental state of one program over one
// extensional database.
type Maintainer struct {
	prog *Program
	// suffix is the index of the first stratum that is recomputed from
	// scratch; len(strata) when the whole program is maintained.
	suffix int
	// owner maps every head predicate to the index of its defining
	// stratum (a predicate is defined in exactly one stratum: all rules
	// with the same head predicate share a dependency-graph node, hence
	// an SCC, hence a stratum). Successors share it; no one writes it.
	owner map[string]int

	baseE *FactSet // the committed extensional set the state is synced to
	view  *FactSet // the materialized eligible prefix, frozen
	full  *FactSet // the complete derived set (== view when suffix is empty), frozen
	// probes counts derivable calls, and overdeleted the facts DRed
	// drops before its probes, over the maintainer's lineage.
	probes, overdeleted int
}

// ViewDelta is the exact fact-level difference of the full derived set
// across one Next: every fact that became derivable and every fact
// that ceased to be, each sorted by fact key, with no overlaps and no
// duplicates.
type ViewDelta struct {
	Adds    []Fact
	Removes []Fact
}

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
// the committed oid counter by one ordinary run of prog: the strata,
// executors, budget and oid clamp a read runs. The view is the run's set
// as it stood before the suffix, the full set its result, both frozen.
// The rebuild runs prog itself, so callers pass a fork of their own
// (Program.Fork), never one that runs elsewhere concurrently.
func NewMaintainer(prog *Program, e *FactSet, counter int64) (*Maintainer, error) {
	m := &Maintainer{prog: prog, owner: map[string]int{}, baseE: e}
	strata, prefix := prog.plan()
	m.suffix = prefix
	for i := range strata {
		for _, pred := range strata[i].heads {
			m.owner[pred] = i
		}
	}
	view, full, err := prog.runSplit(prog.opts.Ctx, 0, prefix, e, &counter)
	if err != nil {
		return nil, err
	}
	m.view, m.full = view, full
	m.view.Freeze()
	m.full.Freeze()
	return m, nil
}

// Fork returns m on a fork of its program under opts (Program.Fork):
// the state it serves is shared, and its successors step under opts. A
// maintainer built under one call's tracer, context and budget is
// handed over this way to serve later commits under other options.
func (m *Maintainer) Fork(opts Options) *Maintainer {
	n := *m
	n.prog = m.prog.Fork(opts)
	return &n
}

// EligibleStrata returns how many leading strata are incrementally
// maintained and the total stratum count.
func (m *Maintainer) EligibleStrata() (prefix, total int) {
	return m.suffix, len(m.prog.strata)
}

// maintained returns the plans of the maintained strata.
func (m *Maintainer) maintained() []stratumPlan {
	strata, _ := m.prog.plan()
	return strata[:m.suffix]
}

// Full returns the maintained full derived set. It is frozen; callers
// must treat it as read-only.
func (m *Maintainer) Full() *FactSet { return m.full }

// Program returns the maintained program: for auditing the maintained
// set (its passive constraints) and for answering goals over a Full()
// set.
func (m *Maintainer) Program() *Program { return m.prog }

// deltaRound is deltaPass over a maintained stratum, handing each
// derived head fact to emit.
func deltaRound(c *evalCtx, plan *stratumPlan, delta, view *FactSet, emit func(Fact) error) error {
	return c.deltaPass(plan.rules, delta, view, func(r *crule, e *env) error {
		fact, err := c.buildAssocFact(r.head, e)
		if err != nil {
			return err
		}
		return emit(fact)
	})
}

// recomputeSuffix re-evaluates the ineligible suffix (if any) on top of
// the maintained prefix, frozen, and freezes the resulting full set for
// concurrent readers.
func (m *Maintainer) recomputeSuffix(counter int64) error {
	if m.suffix >= len(m.prog.strata) {
		m.full = m.view
		return nil
	}
	// RunFrom evaluates a copy of its input, so m.view stays untouched,
	// on a fork, so concurrent steps share no per-run part; the committed
	// counter numbers the oids the suffix invents.
	full, err := m.prog.Fork(m.prog.opts).RunFrom(context.Background(), m.suffix, m.view, &counter)
	if err != nil {
		return err
	}
	m.full = full
	m.full.Freeze()
	return nil
}

// Next propagates one committed base-fact delta (removes applied
// before adds, exactly the commit order) through the maintained prefix,
// recomputes the suffix when one exists, and returns the successor
// maintainer with the exact difference of the full derived set. newE is
// the newly committed (frozen) extensional set and counter the committed
// oid counter. The receiver is left as it was, whether Next succeeds or
// fails; a caller that gets an error builds a new maintainer over newE
// (NewMaintainer) or keeps serving the receiver's state.
func (m *Maintainer) Next(adds, removes []Fact, newE *FactSet, counter int64) (*Maintainer, *ViewDelta, error) {
	n := *m

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

	// The successor writes a clone of the view: O(#predicates), and each
	// write path-copies what it touches.
	newView := m.view.Clone()
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

	strata := m.maintained()
	for si := range strata {
		if err := n.updateDRed(&strata[si], pendAdds[si], pendRemoves[si], m.view, newView, waveAdds, waveRemoves); err != nil {
			return nil, nil, err
		}
	}

	newView.Freeze()
	n.view = newView
	n.baseE = newE
	if err := n.recomputeSuffix(counter); err != nil {
		return nil, nil, err
	}

	// The net view change: the wave records every presence transition,
	// each fact at most once (DRed takes a fact it removed and then
	// restored back out of the wave).
	vd := &ViewDelta{}
	if m.suffix >= len(m.prog.strata) {
		// The view is the full set, so the net wave is the exact
		// difference.
		vd.Adds, vd.Removes = waveAdds.AppendAll(nil), waveRemoves.AppendAll(nil)
	} else {
		// The suffix can only change its own head predicates (deletion
		// targets included); everything else changed exactly as the wave
		// says. Diffing the affected predicates of the two frozen full
		// sets, over the subtrees they do not share, covers both.
		cand := map[string]bool{}
		for p, si := range m.owner {
			if si >= m.suffix {
				cand[p] = true
			}
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
			adds, removes := n.full.DiffPred(m.full, p)
			vd.Adds, vd.Removes = append(vd.Adds, adds...), append(vd.Removes, removes...)
		}
	}
	SortFactsByKey(vd.Adds)
	SortFactsByKey(vd.Removes)
	return &n, vd, nil
}

// Update is Next for a caller that keeps one maintainer variable: on
// success m becomes its successor.
func (m *Maintainer) Update(adds, removes []Fact, newE *FactSet, counter int64) (*ViewDelta, error) {
	next, vd, err := m.Next(adds, removes, newE, counter)
	if err == nil {
		*m = *next
	}
	return vd, err
}

// updateDRed propagates a delta through one maintained stratum with
// delete/rederive. (1) Over-delete: close the first layer — the
// stratum's removed facts and the heads of old-view rule instances that
// read a removed input — under the rules over the *old* view, then keep
// each first-layer fact still extensional or derivable in one step from
// own-stratum premises outside that overestimate (lower-stratum ones
// read from the new view), and go on with the closure of the others
// within it. (2) Remove what is left and probe each of its facts once
// against what survives, keeping those still extensional or derivable
// in one step. (3) Propagate the insertions and the kept facts
// semi-naively over the new view, which restores every other
// over-deleted fact that still holds. The wave ends up holding each
// presence change once: a fact phase 2 removes and phase 3 restores
// leaves it again.
//
// The keep check is the backward step of Motik, Nenov, Piro & Horrocks's
// Backward/Forward algorithm, one layer deep, and deletes nothing that
// still holds: by induction on old derivation depth, a fact outside the
// narrowed set is a kept one or has an old derivation that reads no
// removed input and no narrowed fact.
func (m *Maintainer) updateDRed(plan *stratumPlan, pAdds, pRems []Fact, oldView, newView, waveAdds, waveRemoves *FactSet) error {
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

	// Phase 1: the first layer and its closure over the old view.
	overdel, frontier := NewFactSet(), NewFactSet()
	var first []Fact
	lose := func(f Fact) {
		if oldView.Has(f) && overdel.Add(f) {
			first = append(first, f)
			frontier.Add(f)
		}
	}
	for _, f := range pRems {
		lose(f)
	}
	if in := plan.reads(waveRemoves); in.TotalSize() > 0 {
		if err := deltaRound(c, plan, in, oldView, func(f Fact) error {
			lose(f)
			return nil
		}); err != nil {
			return err
		}
	}
	if err := frontierRounds(c, plan, frontier, oldView, func(f Fact) bool {
		return oldView.Has(f) && overdel.Add(f)
	}); err != nil {
		return err
	}
	// The check reads the new view as if the overestimate were gone. When
	// the overestimate is the first layer alone, phase 2's probes are the
	// same check.
	if len(first) < overdel.TotalSize() {
		lost := NewFactSet()
		frontier = NewFactSet()
		c.exclude = overdel
		for _, f := range first {
			ok := inEnew(f)
			if !ok {
				var err error
				if ok, err = m.derivable(c, plan, f, newView); err != nil {
					return err
				}
			}
			if !ok {
				lost.Add(f)
				frontier.Add(f)
			}
		}
		c.exclude = nil
		if lost.TotalSize() < len(first) {
			if err := frontierRounds(c, plan, frontier, oldView, func(f Fact) bool {
				return overdel.Has(f) && lost.Add(f)
			}); err != nil {
				return err
			}
			overdel = lost
		}
	}
	m.overdeleted += overdel.TotalSize()

	// Phase 2: delete the narrowed overestimate, then probe every member
	// once against the survivors. A fact a rederived one supports is left
	// to phase 3, so no probe waits on another's outcome.
	newView.Drop(overdel)
	var rederived []Fact
	var err error
	for _, p := range overdel.Preds() {
		overdel.Each(p, func(f Fact) bool {
			ok := inEnew(f)
			if !ok {
				if ok, err = m.derivable(c, plan, f, newView); err != nil {
					return false
				}
			}
			if ok {
				rederived = append(rederived, f)
			} else {
				waveRemoves.Add(f)
			}
			return true
		})
		if err != nil {
			return err
		}
	}

	// Phase 3: insertions, semi-naive over the new view (which already
	// contains each frontier), starting from the stratum's new inputs,
	// its base adds and the rederived facts.
	frontier = plan.reads(waveAdds)
	for _, f := range rederived {
		newView.Add(f)
		frontier.Add(f)
	}
	restore := func(f Fact) bool {
		if !newView.Add(f) {
			return false
		}
		if !waveRemoves.Remove(f) {
			waveAdds.Add(f)
		}
		return true
	}
	for _, f := range pAdds {
		if restore(f) {
			frontier.Add(f)
		}
	}
	return frontierRounds(c, plan, frontier, newView, restore)
}

// frontierRounds runs deltaRound over view round by round from frontier,
// each round's frontier the facts of the last that keep accepts, until
// it accepts none.
func frontierRounds(c *evalCtx, plan *stratumPlan, frontier, view *FactSet, keep func(Fact) bool) error {
	for frontier.TotalSize() > 0 {
		next := NewFactSet()
		if err := deltaRound(c, plan, frontier, view, func(f Fact) error {
			if keep(f) {
				next.Add(f)
			}
			return nil
		}); err != nil {
			return err
		}
		frontier = next
	}
	return nil
}

// reads returns the facts of wave over the predicates the stratum reads
// but does not define.
func (plan *stratumPlan) reads(wave *FactSet) *FactSet {
	out := NewFactSet()
	for _, r := range plan.rules {
		r.eachRead(func(pred string, _ bool) {
			if !slices.Contains(plan.heads, pred) {
				wave.Each(pred, func(f Fact) bool {
					out.Add(f)
					return true
				})
			}
		})
	}
	return out
}

// derivable reports whether some rule of the stratum derives target
// from view, less any facts c.exclude holds, in one step. The head is
// pre-unified with the target where that is cheap (constant and
// variable components), the body is matched cheapest literal first from
// those bindings (matchCheapest), and every valuation found is verified
// by rebuilding the head fact.
func (m *Maintainer) derivable(c *evalCtx, plan *stratumPlan, target Fact, view *FactSet) (bool, error) {
	m.probes++
	saved := c.f
	c.f = view
	defer func() { c.f = saved }()
	targetKey := target.Key()
	for _, r := range plan.rules {
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
		err := c.matchCheapest(r.body, 0, e, func(e2 *env) error {
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

// matchCheapest enumerates the valuations of body that extend e, as
// matchBody does, in an order chosen by cost; done marks the literals
// already matched. Each step runs the first pending filter (comparison,
// built-in or negation) whose positive predicate literals to the left
// have all run, the order delta-first joins keep too (DESIGN §14), and
// otherwise the ready positive predicate literal with the fewest
// candidate facts, ties in compiled order. The compiled order is one of
// the orders this rule allows, so some literal is always ready.
func (c *evalCtx) matchCheapest(body []resolvedLit, done uint64, e *env, yield func(*env) error) error {
	if len(body) > 64 {
		return c.matchBody(body, 0, e, yield) // more literals than done has bits
	}
	best, pending := -1, false
	var bufs [2][8]fixedArg // the best literal's fixed arguments, and the next's
	next := 0
	var bestFixed []fixedArg
	var bestAll bool
	var bestFacts candidates
	for i, l := range body {
		if done&(1<<i) != 0 {
			continue
		}
		if l.negated || l.kind != pkClass && l.kind != pkAssoc {
			if pending {
				continue // a predicate literal to its left has not run
			}
			return c.matchLit(l, e, func(e2 *env) error {
				return c.matchCheapest(body, done|1<<i, e2, yield)
			})
		}
		pending = true
		if !allTermsEvaluableOrPattern(l, e.bound) {
			continue
		}
		fixed, all := c.fixedArgs(l, e, bufs[next][:0])
		if facts := c.f.lookup(l.pred, l.eff, fixed); best < 0 || facts.len() < bestFacts.len() {
			best, bestFixed, bestAll, bestFacts = i, fixed, all, facts
			next ^= 1
		}
	}
	if best >= 0 {
		return c.matchFacts(body[best], bestFixed, bestAll, bestFacts, e, func(e2 *env) error {
			return c.matchCheapest(body, done|1<<best, e2, yield)
		})
	}
	if pending {
		return fmt.Errorf("engine: no literal of the body is ready")
	}
	return yield(e)
}
