package engine

// Vectorized semi-naive evaluation: eligible strata run over columnar
// batches (internal/colset) instead of per-fact env matching. The plan
// compiler turns each rule body into a sequence of steps executed at
// their body-order positions — constant/duplicate selections, hash
// joins on dictionary codes, anti-joins for negation, comparison
// filters — and the semi-naive delta stays in code space from round to
// round. A join or anti-join that reads its predicate whole probes an
// index its step keeps for the whole evaluation (vecEval.index). Every columnar stratum of one run encodes into the run's one
// dictionary (vecRun), and at its fixpoint a stratum hands each head
// over to the fact set in code space (FactSet.setCoded): a later
// columnar stratum binds that batch as it is, a read that fixes an
// argument decodes only the rows it matches, and only a walk of the
// predicate decodes all of them (see FactSet). A stratum whose
// rules use a construct with no exact columnar counterpart stays on the
// row engine, the semantics oracle (see compileVecRule); results,
// Stats.Firings and the deterministic trace stream are identical to it.

import (
	"fmt"
	"slices"
	"sort"

	"logres/internal/ast"
	"logres/internal/colset"
	"logres/internal/guard"
	"logres/internal/obs"
	"logres/internal/types"
	"logres/internal/value"
)

// vecPred is one tracked predicate of a lowered stratum: its
// effective-tuple labels, its index in the stratum's binding order, and
// whether the stratum derives it.
type vecPred struct {
	id     int
	pred   string
	labels []string
	head   bool
}

type vecStepKind int

const (
	stepAtom vecStepKind = iota
	stepAnti
	stepFilter
)

// vecStep is one body literal compiled to a columnar operation. Steps
// are 1:1 with body literals and run at their body-order positions, so
// the valuation multiset reaching each step equals the row engine's.
type vecStep struct {
	kind vecStepKind

	// stepAtom / stepAnti
	vp         *vecPred
	constCols  []int // atom label indices filtered to a constant
	constVals  []value.Value
	dupA, dupB []int // intra-atom duplicate-variable label pairs
	keyAccCols []int // join keys: accumulated valuation columns …
	keyAtom    []int // … against these atom label indices
	newAtom    []int // atom label indices binding new variables …
	newAccCols []int // … into these valuation columns

	// stepFilter
	op             string
	neg            bool
	lCol, rCol     int // valuation column, or -1 for a constant
	lConst, rConst value.Value
}

type cmpResult struct {
	holds bool
	err   error
}

// vecRule is one compiled rule: its steps, the positions eligible for
// delta substitution, and the head layout (per effective label either a
// valuation column or a constant).
type vecRule struct {
	r        *crule
	steps    []vecStep
	posSteps []int // step indices of positive atoms, in body order
	nvars    int

	headPred   *vecPred
	headCols   []int // per label: valuation column, or -1
	headConsts []value.Value
}

// vecStratum is the compiled plan of one stratum. It is static: every
// run binds its own state to it (vecEval), so a program holds no batch
// between runs.
type vecStratum struct {
	preds map[string]*vecPred
	order []*vecPred // first-mention order, for deterministic binding
	rules []*vecRule

	heads []*vecPred // head predicates, in rule order
}

// compileVecStratum lowers a stratum to its columnar plan, or names the
// first rule it could not express and the construct in it that has no
// columnar counterpart. A stratum of bodiless rules derives exactly its
// facts: the row loop tests each against the set, where the kernels
// would first encode every head's whole extension.
func compileVecStratum(stratum []*crule) (*vecStratum, *reason) {
	if !slices.ContainsFunc(stratum, func(r *crule) bool { return len(r.body) > 0 }) {
		return nil, &reason{construct: "bodiless rules"}
	}
	vs := &vecStratum{preds: map[string]*vecPred{}}
	for _, r := range stratum {
		vr, construct := vs.compileVecRule(r)
		if vr == nil {
			return nil, &reason{rule: r, construct: construct}
		}
		vs.rules = append(vs.rules, vr)
		if !vr.headPred.head {
			vr.headPred.head = true
			vs.heads = append(vs.heads, vr.headPred)
		}
	}
	return vs, nil
}

// vecRun is the columnar state of one Program run, shared by all its
// columnar strata: the dictionary every one of them encodes into, so a
// head one stratum derived reaches the next as the codes it was derived
// in. It lives as long as the run and the code-space rows the run hands
// to its fact set.
type vecRun struct {
	p    *Program
	g    *guard.Guard
	dict *colset.Dict
}

// vecPredRows is one tracked predicate's rows in one evaluation: the
// batch holds its extension as bound, then the rows each round derived,
// in emit order. A head also carries the membership set of packed code
// rows behind the emit-boundary duplicate filter, and the round
// bookkeeping of the code-space delta: emit appends past cur, and the
// next round boundary turns the appended rows into that round's delta.
type vecPredRows struct {
	batch  *colset.Batch
	base   int             // rows bound from the fact set
	member *colset.CodeSet // nil unless the pred is a head in this stratum

	cur   *colset.Batch // the rows the running round reads: batch as of its start
	delta *colset.Batch // the rows the previous round appended; nil when none
}

// vecCodes are one rule's constants interned in the run's dictionary:
// per step, and per head label.
type vecCodes struct {
	steps []stepCodes
	head  []uint32 // per head label: its constant's code
}

// stepCodes are one step's constants' codes and what the step keeps
// for the whole evaluation: for a negated atom, or an atom it joins on a
// key and reads whole (not as the delta), the hash index over its
// selected rows (index); for an order comparison, its memo keyed by
// code pair.
type stepCodes struct {
	consts []uint32 // stepAtom, stepAnti: constVals' codes
	l, r   uint32   // stepFilter: the constant sides' codes
	cmp    map[uint64]cmpResult

	ix      *colset.Index // nil until the step first probes it
	covered int           // the batch rows ix covers
	sels    []int         // per constant, then duplicate filter: the covered rows it kept
}

type kernelStat struct{ calls, rows int }

// vecEval is one columnar stratum evaluated in one run: the plan, the
// run, and the state bind attached — rows per tracked predicate, codes
// per rule, kernel counters and the counts the guard reads.
type vecEval struct {
	*vecRun
	vs    *vecStratum
	rows  []vecPredRows // by vecPred.id
	codes []vecCodes    // by rule index

	total   int // facts in the current set as of the running round's start
	emitted int
	kernels map[string]*kernelStat
}

// termConstruct names a term the columnar plan cannot hold in a code
// column (anything but a variable, a constant or a wildcard).
func termConstruct(t ast.Term) string {
	switch t.(type) {
	case ast.FuncApp:
		return "data-function read"
	case ast.BinExpr:
		return "arithmetic"
	}
	return "constructed term"
}

func (vs *vecStratum) trackPred(pred string, eff types.Tuple) *vecPred {
	if vp, ok := vs.preds[pred]; ok {
		return vp
	}
	labels := make([]string, len(eff.Fields))
	for i, f := range eff.Fields {
		labels[i] = f.Label
	}
	vp := &vecPred{id: len(vs.order), pred: pred, labels: labels}
	vs.preds[pred] = vp
	vs.order = append(vs.order, vp)
	return vp
}

// compileVecRule lowers one rule to columnar steps, or names the
// construct that keeps it (and so its stratum) on the row engine.
func (vs *vecStratum) compileVecRule(r *crule) (*vecRule, string) {
	if construct := headConstruct(r); construct != "" {
		return nil, construct
	}
	h := r.head
	vr := &vecRule{r: r}
	varCols := map[string]int{}
	ncols := 0
	for _, l := range r.body {
		switch l.kind {
		case pkAssoc:
			if len(l.tupleVars) > 0 || l.selfTerm != nil {
				return nil, "tuple variable"
			}
			if l.negated && len(l.adVars) > 0 {
				return nil, "active-domain negation"
			}
			st := vecStep{kind: stepAtom, vp: vs.trackPred(l.pred, l.eff)}
			if l.negated {
				st.kind = stepAnti
			}
			labelIdx := map[string]int{}
			for i, lab := range st.vp.labels {
				labelIdx[lab] = i
			}
			atomVar := map[string]int{} // var → first atom label index
			for _, comp := range l.comps {
				li, ok := labelIdx[comp.label]
				if !ok {
					return nil, "label outside the effective tuple"
				}
				switch t := comp.term.(type) {
				case ast.Wildcard:
				case ast.Const:
					st.constCols = append(st.constCols, li)
					st.constVals = append(st.constVals, t.Val)
				case ast.Var:
					if first, dup := atomVar[t.Name]; dup {
						st.dupA = append(st.dupA, first)
						st.dupB = append(st.dupB, li)
						continue
					}
					atomVar[t.Name] = li
					if ac, bound := varCols[t.Name]; bound {
						st.keyAccCols = append(st.keyAccCols, ac)
						st.keyAtom = append(st.keyAtom, li)
					} else {
						if l.negated {
							// Unbound variables in negation range over the
							// active domain; the row engine keeps those.
							return nil, "active-domain negation"
						}
						st.newAtom = append(st.newAtom, li)
						st.newAccCols = append(st.newAccCols, ncols)
						varCols[t.Name] = ncols
						ncols++
					}
				default:
					return nil, termConstruct(t)
				}
			}
			if !l.negated {
				vr.posSteps = append(vr.posSteps, len(vr.steps))
			}
			vr.steps = append(vr.steps, st)
		case pkCompare:
			st := vecStep{kind: stepFilter, op: l.pred, neg: l.negated, lCol: -1, rCol: -1}
			bindArg := func(t ast.Term, col *int, cv *value.Value) string {
				switch x := t.(type) {
				case ast.Var:
					c, bound := varCols[x.Name]
					if !bound {
						// An unbound side of "=" binds through unification;
						// keep that on the row engine.
						return "binding comparison"
					}
					*col = c
					return ""
				case ast.Const:
					*cv = x.Val
					return ""
				}
				return termConstruct(t)
			}
			if why := bindArg(l.args[0], &st.lCol, &st.lConst); why != "" {
				return nil, why
			}
			if why := bindArg(l.args[1], &st.rCol, &st.rConst); why != "" {
				return nil, why
			}
			vr.steps = append(vr.steps, st)
		case pkClass:
			return nil, "class atom"
		default:
			return nil, "built-in predicate"
		}
	}
	hp := vs.trackPred(h.pred, h.eff)
	vr.headPred = hp
	vr.headCols = make([]int, len(hp.labels))
	vr.headConsts = make([]value.Value, len(hp.labels))
	for li := range vr.headCols {
		vr.headCols[li] = -1
		vr.headConsts[li] = value.Null{}
	}
	for _, comp := range h.comps {
		li := -1
		for i, lab := range hp.labels {
			if lab == comp.label {
				li = i
				break
			}
		}
		if li < 0 {
			return nil, "label outside the effective tuple"
		}
		switch t := comp.term.(type) {
		case ast.Var:
			c, bound := varCols[t.Name]
			if !bound {
				return nil, "unbound head variable"
			}
			vr.headCols[li] = c
		case ast.Const:
			vr.headConsts[li] = t.Val
		default:
			return nil, termConstruct(t)
		}
	}
	vr.nvars = ncols
	return vr, ""
}

// bind builds one evaluation's state: a batch per tracked predicate,
// the rule constants interned in the run's dictionary, and membership
// sets for head predicates. A predicate an earlier columnar stratum of
// the same run handed over in code space is taken as that batch; any
// other is encoded from cur by a walk of its store, in key order; no
// result depends on the order rows are bound in.
//
// The membership sets come last, once the dictionary holds every code
// an emit can produce: a columnar rule has no arithmetic or data
// function (termConstruct), so each head code is a bound code or an
// interned constant, and the dictionary's size D bounds them all for the
// whole evaluation. Each set is sized by D, its width and the rows bound
// (colset.NewCodeSet), and then holds the canonical base rows
// appendFacts recorded.
func (vs *vecStratum) bind(run *vecRun, cur *FactSet) *vecEval {
	ev := &vecEval{
		vecRun:  run,
		vs:      vs,
		rows:    make([]vecPredRows, len(vs.order)),
		codes:   make([]vecCodes, len(vs.rules)),
		kernels: map[string]*kernelStat{},
		total:   cur.TotalSize(),
	}
	canon := make([][]int32, len(vs.order)) // per head: its canonical base rows
	bound := 0
	for _, vp := range vs.order {
		pr := &ev.rows[vp.id]
		if !vp.head {
			// A head of an earlier stratum of this run: nothing has read
			// or written it since, so its batch is still its extension.
			pr.batch = cur.codedBatch(vp.pred, run.dict)
		}
		if pr.batch == nil {
			pr.batch = colset.NewBatch(len(vp.labels))
			canon[vp.id] = ev.appendFacts(vp, pr.batch, cur)
		}
		pr.base = pr.batch.Len()
		bound += pr.base
		pr.cur = pr.batch
		if vp.head {
			// A head's batch grows while a round runs; what the round
			// reads is a view fixed at its start.
			pr.cur = pr.batch.Slice(0, pr.base)
		}
	}
	dict := run.dict
	for ri, vr := range vs.rules {
		vc := &ev.codes[ri]
		vc.steps = make([]stepCodes, len(vr.steps))
		for si := range vr.steps {
			st, sc := &vr.steps[si], &vc.steps[si]
			switch st.kind {
			case stepAtom, stepAnti:
				sc.consts = make([]uint32, len(st.constVals))
				for k, v := range st.constVals {
					sc.consts[k] = dict.Code(v)
				}
			case stepFilter:
				if st.lCol < 0 {
					sc.l = dict.Code(st.lConst)
				}
				if st.rCol < 0 {
					sc.r = dict.Code(st.rConst)
				}
			}
		}
		vc.head = make([]uint32, len(vr.headConsts))
		for li, v := range vr.headConsts {
			if vr.headCols[li] < 0 {
				vc.head[li] = dict.Code(v)
			}
		}
	}
	for _, hp := range vs.heads {
		pr := &ev.rows[hp.id]
		pr.member = colset.NewCodeSet(len(hp.labels), dict.Len(), bound)
		cols := make([][]uint32, len(hp.labels))
		for li := range cols {
			cols[li] = pr.batch.Col(li)
		}
		for _, r := range canon[hp.id] {
			pr.member.AddRow(cols, r)
		}
	}
	return ev
}

// appendFacts encodes vp's extension in cur onto b and, for a head,
// returns the rows that belong in its membership set. Only canonical
// facts — association tuples with exactly the effective labels in
// declaration order, the shape every derived fact has — do: a
// non-canonical base fact never Key-equals a derived fact, so the row
// engine's Has filter would not suppress the derivation either.
func (ev *vecEval) appendFacts(vp *vecPred, b *colset.Batch, cur *FactSet) (canon []int32) {
	row := make([]uint32, len(vp.labels))
	cur.Each(vp.pred, func(fact Fact) bool {
		canonical := vp.head && !fact.IsClass && fact.Tuple.Len() == len(vp.labels)
		for li, lab := range vp.labels {
			v, ok := fact.Tuple.Get(lab)
			if !ok {
				v = value.Null{}
			}
			row[li] = ev.dict.Code(v)
			if canonical && fact.Tuple.Field(li).Label != lab {
				canonical = false
			}
		}
		if canonical {
			canon = append(canon, int32(b.Len()))
		}
		b.AppendRow(row)
		return true
	})
	return canon
}

// advance closes a round: the rows emit appended since the last
// boundary become the delta the next round's passes substitute, and
// join the rows its other atoms read. It returns the size of that
// delta.
func (ev *vecEval) advance() int {
	n := 0
	for _, hp := range ev.vs.heads {
		pr := &ev.rows[hp.id]
		lo, hi := pr.cur.Len(), pr.batch.Len()
		pr.delta = nil
		if hi > lo {
			pr.cur = pr.batch.Slice(0, hi)
			pr.delta = pr.batch.Slice(lo, hi)
			n += hi - lo
		}
	}
	return n
}

// handOff gives cur each head's derived rows in code space, past the
// rows bind encoded from cur: a read that fixes an argument decodes only
// the rows it matches, a walk of the predicate decodes them all.
func (ev *vecEval) handOff(cur *FactSet) {
	for _, hp := range ev.vs.heads {
		pr := &ev.rows[hp.id]
		cur.setCoded(hp.pred, &codedPred{dict: ev.dict, labels: hp.labels, batch: pr.batch, base: pr.base})
	}
}

func (ev *vecEval) record(kernel string, rows int) {
	ks := ev.kernels[kernel]
	if ks == nil {
		ks = &kernelStat{}
		ev.kernels[kernel] = ks
	}
	ks.calls++
	ks.rows += rows
}

// atomSel applies the constant and duplicate-variable filters of an
// atom step to src's rows from lo on, adding to sels[k] the rows filter k
// kept; nil means every row from lo on.
func atomSel(st *vecStep, consts []uint32, src *colset.Batch, lo int, sels []int) []int32 {
	var sel []int32
	rows := src.Len()
	if lo > 0 && len(sels) > 0 {
		sel = make([]int32, rows-lo)
		for i := range sel {
			sel[i] = int32(lo + i)
		}
	}
	for k, li := range st.constCols {
		sel = colset.SelectEq(src.Col(li), rows, sel, consts[k])
		sels[k] += len(sel)
	}
	for k := range st.dupA {
		sel = colset.SelectColEq(src.Col(st.dupA[k]), src.Col(st.dupB[k]), rows, sel)
		sels[len(st.constCols)+k] += len(sel)
	}
	return sel
}

// accKeys returns an atom step's key columns in the accumulated valuation.
func accKeys(st *vecStep, cols [][]uint32) [][]uint32 {
	keys := make([][]uint32, len(st.keyAccCols))
	for k, ac := range st.keyAccCols {
		keys[k] = cols[ac]
	}
	return keys
}

// atomKeys returns an atom step's key columns in src.
func atomKeys(st *vecStep, src *colset.Batch) [][]uint32 {
	keys := make([][]uint32, len(st.keyAtom))
	for k, li := range st.keyAtom {
		keys[k] = src.Col(li)
	}
	return keys
}

// index returns the hash index of atom step st over src, the rows its
// predicate has when the round starts. The step keeps it for the whole
// evaluation: it is built on first use over the step's selected rows,
// and extended by the rows advance has appended to src since, which only
// a head of the stratum gains. So a predicate the stratum only reads is
// indexed once, where a join per pass indexed it every round. Each
// filter reports the rows it keeps among all of src, as a selection over
// src would.
func (ev *vecEval) index(st *vecStep, sc *stepCodes, src *colset.Batch) *colset.Index {
	if sc.ix == nil {
		sc.ix = colset.NewIndex(len(st.keyAtom))
		sc.sels = make([]int, len(st.constCols)+len(st.dupA))
	}
	if hi := src.Len(); hi > sc.covered {
		sel := atomSel(st, sc.consts, src, sc.covered, sc.sels)
		sc.ix.Extend(atomKeys(st, src), sc.covered, hi, sel)
		sc.covered = hi
	}
	for _, n := range sc.sels {
		ev.record("select", n)
	}
	return sc.ix
}

// runPass evaluates one pass of rule ri: the full pass (deltaStep < 0)
// or the pass with the atom at deltaStep reading its predicate's delta.
// New rows land on the head predicate's batch, past what this round
// reads.
func (ev *vecEval) runPass(ri, deltaStep, round int) error {
	vr, vc := ev.vs.rules[ri], &ev.codes[ri]
	cols := make([][]uint32, vr.nvars)
	n := 1 // the unit valuation: one row, no columns
	for si := range vr.steps {
		st, sc := &vr.steps[si], &vc.steps[si]
		switch st.kind {
		case stepAtom:
			pr := &ev.rows[st.vp.id]
			src := pr.cur
			if si == deltaStep {
				src = pr.delta
			}
			var lidx, ridx []int32
			if si == deltaStep || len(st.keyAtom) == 0 {
				// A delta is new each round, and a step with no key
				// column is a cross product: join for this pass only.
				sels := make([]int, len(st.constCols)+len(st.dupA))
				sel := atomSel(st, sc.consts, src, 0, sels)
				for _, k := range sels {
					ev.record("select", k)
				}
				lidx, ridx = colset.Join(accKeys(st, cols), n, nil, atomKeys(st, src), src.Len(), sel)
			} else {
				lidx, ridx = ev.index(st, sc, src).Probe(accKeys(st, cols), n, nil)
			}
			ev.record("join", len(lidx))
			for ci, col := range cols {
				if col != nil {
					cols[ci] = colset.Gather(col, lidx)
				}
			}
			for k, li := range st.newAtom {
				cols[st.newAccCols[k]] = colset.Gather(src.Col(li), ridx)
			}
			n = len(lidx)
		case stepAnti:
			keep := ev.index(st, sc, ev.rows[st.vp.id].cur).Missing(accKeys(st, cols), n, nil)
			ev.record("antijoin", len(keep))
			for ci, col := range cols {
				if col != nil {
					cols[ci] = colset.Gather(col, keep)
				}
			}
			n = len(keep)
		case stepFilter:
			keep, err := ev.runFilter(st, sc, cols, n)
			if err != nil {
				return err
			}
			ev.record("filter", len(keep))
			for ci, col := range cols {
				if col != nil {
					cols[ci] = colset.Gather(col, keep)
				}
			}
			n = len(keep)
		}
		if n == 0 {
			return nil
		}
	}
	return ev.emit(vr, vc.head, cols, n, round)
}

// runFilter evaluates a comparison step, with codes sc, over the
// accumulated valuation rows. Equality is code equality; ordering
// comparisons decode through the dictionary and reuse compareValues, so
// type errors surface exactly as on the row engine. Results are
// memoized per code pair.
func (ev *vecEval) runFilter(st *vecStep, sc *stepCodes, cols [][]uint32, n int) ([]int32, error) {
	code := func(col int, c uint32, i int) uint32 {
		if col >= 0 {
			return cols[col][i]
		}
		return c
	}
	lCode, rCode := sc.l, sc.r
	keep := make([]int32, 0, n)
	if st.op == "=" || st.op == "!=" {
		want := st.op == "="
		if st.neg {
			want = !want
		}
		for i := 0; i < n; i++ {
			eq := code(st.lCol, lCode, i) == code(st.rCol, rCode, i)
			if eq == want {
				keep = append(keep, int32(i))
			}
		}
		return keep, nil
	}
	if sc.cmp == nil {
		sc.cmp = map[uint64]cmpResult{}
	}
	for i := 0; i < n; i++ {
		lc := code(st.lCol, lCode, i)
		rc := code(st.rCol, rCode, i)
		k := uint64(lc)<<32 | uint64(rc)
		res, ok := sc.cmp[k]
		if !ok {
			holds, err := compareValues(st.op, ev.dict.Value(lc), ev.dict.Value(rc))
			res = cmpResult{holds: holds, err: err}
			sc.cmp[k] = res
		}
		if res.err != nil {
			return nil, res.err
		}
		holds := res.holds
		if st.neg {
			holds = !holds
		}
		if holds {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// emit turns the surviving valuations into head rows. Firings count
// every valuation (exactly like instantiateHead); the membership set
// suppresses rows already present in the current set or already derived
// this stratum — the same facts the row engine's Has filter suppresses —
// and the rest are appended to the head predicate's batch as codes. Every
// head code is below the dictionary size bind sized the set by, so where
// that set is dense each test is one bit.
func (ev *vecEval) emit(vr *vecRule, headCodes []uint32, cols [][]uint32, n, round int) error {
	if ev.p.stats != nil {
		ev.p.stats.Firings[vr.r.id] += n
	}
	hp := vr.headPred
	pr := &ev.rows[hp.id]
	row := make([]uint32, len(hp.labels))
	added := 0
	for i := 0; i < n; i++ {
		ev.emitted++
		if ev.g != nil && ev.emitted%inRoundCheckInterval == 0 {
			if err := ev.p.inRoundCheck(ev.g, round, hp.pred, func() int { return ev.total + ev.emitted }, ev.p.invented()); err != nil {
				return err
			}
		}
		for li := range hp.labels {
			if c := vr.headCols[li]; c >= 0 {
				row[li] = cols[c][i]
			} else {
				row[li] = headCodes[li]
			}
		}
		if pr.member.Add(row) {
			pr.batch.AppendRow(row)
			added++
		}
	}
	ev.record("emit", added)
	return nil
}

// traceVecKernels reports the stratum's kernel counters as
// deterministic vec.kernel events, in kernel-name order.
func (ev *vecEval) traceVecKernels(stratum int) {
	p := ev.p
	if !p.tracing() {
		return
	}
	names := make([]string, 0, len(ev.kernels))
	for name := range ev.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ks := ev.kernels[name]
		p.emit(obs.Event{
			Kind:    obs.KindVecKernel,
			Stratum: stratum,
			Pred:    name,
			Count:   ks.calls,
			Total:   ks.rows,
			Detail:  "vectorize",
		})
	}
}

// semiNaiveVectorized is delta iteration over columnar batches, driven
// by the rounds semiNaive uses (deltaRounds): a full round 0, then one
// delta-substituted pass per positive atom position with a non-empty
// delta. The fact counts the round boundaries report are kept by the
// plan (ev.total), since the derived rows reach the fact set only at
// the fixpoint, and then in code space (handOff). cur is the run's
// private copy of E (runGuarded cloned it): the batches not handed over
// are encoded from it in key order, and handOff grows it in place.
func (p *Program) semiNaiveVectorized(vs *vecStratum, run *vecRun, cur *FactSet) (*FactSet, error) {
	ev := vs.bind(run, cur)
	delta := 0
	err := p.deltaRounds(func() int { return ev.total }, func(round int) (int, error) {
		ev.total += delta // the merge of the previous round's delta
		ev.emitted = 0
		for ri, vr := range vs.rules {
			if round == 0 {
				if err := ev.runPass(ri, -1, 0); err != nil {
					return 0, fmt.Errorf("%w (in rule %s)", err, vr.r)
				}
				continue
			}
			for _, si := range vr.posSteps {
				if ev.rows[vr.steps[si].vp.id].delta == nil {
					continue
				}
				if err := ev.runPass(ri, si, round); err != nil {
					return 0, fmt.Errorf("%w (in rule %s)", err, vr.r)
				}
			}
		}
		delta = ev.advance()
		return delta, nil
	})
	if err != nil {
		return nil, err
	}
	ev.handOff(cur)
	ev.traceVecKernels(p.curStratum())
	return cur, nil
}
