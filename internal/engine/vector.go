package engine

// Vectorized semi-naive evaluation: eligible strata run over columnar
// batches (internal/colset) instead of per-fact env matching. The plan
// compiler turns each rule body into a sequence of steps executed at
// their body-order positions — constant/duplicate selections, hash
// joins on dictionary codes, anti-joins for negation, comparison
// filters — and the semi-naive delta stays in code space from round to
// round. Every columnar stratum of one run encodes into the run's one
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
// columnar counterpart.
func compileVecStratum(stratum []*crule) (*vecStratum, *reason) {
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

// stepCodes are one step's constants' codes and, for an order
// comparison, its memo keyed by code pair.
type stepCodes struct {
	consts []uint32 // stepAtom, stepAnti: constVals' codes
	l, r   uint32   // stepFilter: the constant sides' codes
	cmp    map[uint64]cmpResult
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
// membership sets for head predicates, and the rule constants interned
// in the run's dictionary. A predicate an earlier columnar stratum of
// the same run handed over in code space is taken as that batch; any
// other is encoded from cur by a walk of its store, in key order; no
// result depends on the order rows are bound in.
func (vs *vecStratum) bind(run *vecRun, cur *FactSet) *vecEval {
	ev := &vecEval{
		vecRun:  run,
		vs:      vs,
		rows:    make([]vecPredRows, len(vs.order)),
		codes:   make([]vecCodes, len(vs.rules)),
		kernels: map[string]*kernelStat{},
		total:   cur.TotalSize(),
	}
	for _, vp := range vs.order {
		pr := &ev.rows[vp.id]
		if vp.head {
			pr.member = colset.NewCodeSet(len(vp.labels))
		} else if b := cur.codedBatch(vp.pred, run.dict); b != nil {
			// A head of an earlier stratum of this run: nothing has read
			// or written it since, so its batch is still its extension.
			pr.batch = b
		}
		if pr.batch == nil {
			pr.batch = colset.NewBatch(len(vp.labels))
			ev.appendFacts(vp, pr, cur, vp.pred)
		}
		pr.base = pr.batch.Len()
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
	return ev
}

// appendFacts encodes pred's extension in cur onto vp's batch. Only
// canonical facts — association tuples with exactly the effective labels
// in declaration order, the shape every derived fact has — enter the
// membership set: a non-canonical base fact never Key-equals a derived
// fact, so the row engine's Has filter would not suppress the
// derivation either.
func (ev *vecEval) appendFacts(vp *vecPred, pr *vecPredRows, cur *FactSet, pred string) {
	row := make([]uint32, len(vp.labels))
	cur.Each(pred, func(fact Fact) bool {
		canonical := pr.member != nil && !fact.IsClass && fact.Tuple.Len() == len(vp.labels)
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
		pr.batch.AppendRow(row)
		if canonical {
			pr.member.Add(row)
		}
		return true
	})
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
// atom step; nil means every row.
func (ev *vecEval) atomSel(st *vecStep, consts []uint32, src *colset.Batch) []int32 {
	var sel []int32
	rows := src.Len()
	for k, li := range st.constCols {
		sel = colset.SelectEq(src.Col(li), rows, sel, consts[k])
		ev.record("select", len(sel))
	}
	for k := range st.dupA {
		sel = colset.SelectColEq(src.Col(st.dupA[k]), src.Col(st.dupB[k]), rows, sel)
		ev.record("select", len(sel))
	}
	return sel
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
		st := &vr.steps[si]
		switch st.kind {
		case stepAtom:
			pr := &ev.rows[st.vp.id]
			src := pr.cur
			if si == deltaStep {
				src = pr.delta
			}
			sel := ev.atomSel(st, vc.steps[si].consts, src)
			lkeys := make([][]uint32, len(st.keyAccCols))
			for k, ac := range st.keyAccCols {
				lkeys[k] = cols[ac]
			}
			rkeys := make([][]uint32, len(st.keyAtom))
			for k, li := range st.keyAtom {
				rkeys[k] = src.Col(li)
			}
			lidx, ridx := colset.Join(lkeys, n, nil, rkeys, src.Len(), sel)
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
			src := ev.rows[st.vp.id].cur
			sel := ev.atomSel(st, vc.steps[si].consts, src)
			lkeys := make([][]uint32, len(st.keyAccCols))
			for k, ac := range st.keyAccCols {
				lkeys[k] = cols[ac]
			}
			rkeys := make([][]uint32, len(st.keyAtom))
			for k, li := range st.keyAtom {
				rkeys[k] = src.Col(li)
			}
			keep := colset.AntiJoin(lkeys, n, nil, rkeys, src.Len(), sel)
			ev.record("antijoin", len(keep))
			for ci, col := range cols {
				if col != nil {
					cols[ci] = colset.Gather(col, keep)
				}
			}
			n = len(keep)
		case stepFilter:
			keep, err := ev.runFilter(st, &vc.steps[si], cols, n)
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
// and the rest are appended to the head predicate's batch as codes.
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
			if err := ev.guardCheck(round, hp.pred); err != nil {
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

// guardCheck mirrors evalCtx.inRoundCheck for the vectorized emit loop.
func (ev *vecEval) guardCheck(round int, pred string) error {
	invented := 0
	if st := ev.p.stats; st != nil {
		invented = st.Invented
	}
	err := ev.g.Check(round, func() int { return ev.total + ev.emitted }, invented)
	if err != nil && ev.p.opts.Tracer != nil {
		ev.p.emit(obs.Event{
			Kind:    obs.KindGuardCheck,
			Stratum: ev.g.Stratum(),
			Round:   round,
			Pred:    pred,
			Detail:  err.Error(),
		})
	}
	return err
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
