package engine

// Vectorized semi-naive evaluation: eligible strata run over columnar
// batches (internal/colset) instead of per-fact env matching. The plan
// compiler turns each rule body into a sequence of steps executed at
// their body-order positions — constant/duplicate selections, hash
// joins on dictionary codes, anti-joins for negation, comparison
// filters — and the semi-naive delta stays in code space from round to
// round: codes are decoded back into facts once, when the stratum has
// reached its fixpoint. A stratum whose rules use a construct with no
// exact columnar counterpart stays on the row engine, the semantics
// oracle (see compileVecRule); results, Stats.Firings and the
// deterministic trace stream are identical to it.

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

// vecPred is one tracked predicate: its effective-tuple labels and its
// columnar batch — the base extension in canonical order, then the rows
// each round derived, in emit order. Head predicates also carry the
// membership set of packed code rows behind the emit-boundary duplicate
// filter, and the round bookkeeping of the code-space delta: emit
// appends past cur, and the next round boundary turns the appended rows
// into that round's delta.
type vecPred struct {
	pred   string
	labels []string
	batch  *colset.Batch
	member *colset.CodeSet // nil unless the pred is a head in this stratum

	cur   *colset.Batch // the rows the running round reads: batch as of its start
	delta *colset.Batch // the rows the previous round appended; nil when none
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
	constCodes []uint32
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
	lCode, rCode   uint32
	cmpCache       map[uint64]cmpResult // order-op memo, keyed by code pair
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
	headCodes  []uint32
}

type kernelStat struct{ calls, rows int }

// vecStratum is the compiled plan plus per-evaluation state (dictionary,
// batches, kernel counters) for one stratum.
type vecStratum struct {
	p     *Program
	preds map[string]*vecPred
	order []*vecPred // first-mention order, for deterministic binding
	rules []*vecRule

	heads []*vecPred // head predicates, in rule order

	dict    *colset.Dict
	g       *guard.Guard
	total   int // facts in the current set as of the running round's start
	emitted int
	kernels map[string]*kernelStat
}

// compileVecStratum lowers a stratum to its columnar plan, or names the
// first rule it could not express and the construct in it that has no
// columnar counterpart. The lowering is static: bind attaches each run's
// dictionary and batches.
func compileVecStratum(stratum []*crule) (*vecStratum, *reason) {
	vs := &vecStratum{preds: map[string]*vecPred{}}
	for _, r := range stratum {
		vr, construct := vs.compileVecRule(r)
		if vr == nil {
			return nil, &reason{rule: r, construct: construct}
		}
		vs.rules = append(vs.rules, vr)
		if !slices.Contains(vs.heads, vr.headPred) {
			vs.heads = append(vs.heads, vr.headPred)
		}
	}
	return vs, nil
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
	vp := &vecPred{pred: pred, labels: labels}
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

// bind builds the per-evaluation state: the shared dictionary, one
// batch per tracked predicate in cur's canonical key order (Facts
// returns it whether or not cur is frozen), membership sets for head
// predicates, and interned constant codes. It resets every field a run
// writes, so a program reused after any run, aborted or not, starts
// clean.
func (vs *vecStratum) bind(p *Program, cur *FactSet) {
	vs.p = p
	vs.g = p.armedGuard()
	vs.dict = colset.NewDict()
	vs.kernels = map[string]*kernelStat{}
	vs.total = cur.TotalSize()
	for _, hp := range vs.heads {
		hp.member = colset.NewCodeSet(len(hp.labels))
	}
	for _, vp := range vs.order {
		vp.batch = colset.NewBatch(len(vp.labels))
		// Facts stores a view of the predicate in cur. An empty one gets
		// none, so the rows materialize adds to it go straight into the
		// set, and its view is built once, sorted, when it is first read.
		if cur.Size(vp.pred) > 0 {
			vs.appendFacts(vp, cur.Facts(vp.pred))
		}
		vp.cur = vp.batch
	}
	for _, hp := range vs.heads {
		// A head's batch grows while a round runs; what the round reads
		// is a view fixed at its start.
		hp.cur = hp.batch.Slice(0, hp.batch.Len())
	}
	for _, vr := range vs.rules {
		for si := range vr.steps {
			st := &vr.steps[si]
			switch st.kind {
			case stepAtom, stepAnti:
				st.constCodes = make([]uint32, len(st.constVals))
				for k, v := range st.constVals {
					st.constCodes[k] = vs.dict.Code(v)
				}
			case stepFilter:
				if st.lCol < 0 {
					st.lCode = vs.dict.Code(st.lConst)
				}
				if st.rCol < 0 {
					st.rCode = vs.dict.Code(st.rConst)
				}
				st.cmpCache = nil
			}
		}
		vr.headCodes = make([]uint32, len(vr.headConsts))
		for li, v := range vr.headConsts {
			if vr.headCols[li] < 0 {
				vr.headCodes[li] = vs.dict.Code(v)
			}
		}
	}
}

// appendFacts encodes the base extension onto vp's batch. Only
// canonical facts — association tuples with exactly the effective labels
// in declaration order, the shape every derived fact has — enter the
// membership set: a non-canonical base fact never Key-equals a derived
// fact, so the row engine's Has filter would not suppress the
// derivation either.
func (vs *vecStratum) appendFacts(vp *vecPred, facts []Fact) {
	row := make([]uint32, len(vp.labels))
	for _, fact := range facts {
		canonical := vp.member != nil && !fact.IsClass && fact.Tuple.Len() == len(vp.labels)
		for li, lab := range vp.labels {
			v, ok := fact.Tuple.Get(lab)
			if !ok {
				v = value.Null{}
			}
			row[li] = vs.dict.Code(v)
			if canonical && fact.Tuple.Field(li).Label != lab {
				canonical = false
			}
		}
		vp.batch.AppendRow(row)
		if canonical {
			vp.member.Add(row)
		}
	}
}

// advance closes a round: the rows emit appended since the last
// boundary become the delta the next round's passes substitute, and
// join the rows its other atoms read. It returns the size of that
// delta.
func (vs *vecStratum) advance() int {
	n := 0
	for _, hp := range vs.heads {
		lo, hi := hp.cur.Len(), hp.batch.Len()
		hp.delta = nil
		if hi > lo {
			hp.cur = hp.batch.Slice(0, hi)
			hp.delta = hp.batch.Slice(lo, hi)
			n += hi - lo
		}
	}
	return n
}

// materialize decodes the rows the stratum derived — each head's rows
// after those bind encoded from cur — into cur, in emit order.
func (vs *vecStratum) materialize(cur *FactSet) {
	for _, hp := range vs.heads {
		fields := make([]value.Field, len(hp.labels))
		for r := cur.Size(hp.pred); r < hp.batch.Len(); r++ {
			for li, lab := range hp.labels {
				fields[li] = value.Field{Label: lab, Value: vs.dict.Value(hp.batch.Col(li)[r])}
			}
			cur.Add(Fact{Pred: hp.pred, Tuple: value.NewTuple(fields...)}) // NewTuple copies
		}
	}
}

func (vs *vecStratum) record(kernel string, rows int) {
	ks := vs.kernels[kernel]
	if ks == nil {
		ks = &kernelStat{}
		vs.kernels[kernel] = ks
	}
	ks.calls++
	ks.rows += rows
}

// atomSel applies the constant and duplicate-variable filters of an
// atom step; nil means every row.
func (vs *vecStratum) atomSel(st *vecStep, src *colset.Batch) []int32 {
	var sel []int32
	rows := src.Len()
	for k, li := range st.constCols {
		sel = colset.SelectEq(src.Col(li), rows, sel, st.constCodes[k])
		vs.record("select", len(sel))
	}
	for k := range st.dupA {
		sel = colset.SelectColEq(src.Col(st.dupA[k]), src.Col(st.dupB[k]), rows, sel)
		vs.record("select", len(sel))
	}
	return sel
}

// runPass evaluates one rule pass: the full pass (deltaStep < 0) or the
// pass with the atom at deltaStep reading its predicate's delta. New
// rows land on the head predicate's batch, past what this round reads.
func (vs *vecStratum) runPass(vr *vecRule, deltaStep, round int) error {
	cols := make([][]uint32, vr.nvars)
	n := 1 // the unit valuation: one row, no columns
	for si := range vr.steps {
		st := &vr.steps[si]
		switch st.kind {
		case stepAtom:
			src := st.vp.cur
			if si == deltaStep {
				src = st.vp.delta
			}
			sel := vs.atomSel(st, src)
			lkeys := make([][]uint32, len(st.keyAccCols))
			for k, ac := range st.keyAccCols {
				lkeys[k] = cols[ac]
			}
			rkeys := make([][]uint32, len(st.keyAtom))
			for k, li := range st.keyAtom {
				rkeys[k] = src.Col(li)
			}
			lidx, ridx := colset.Join(lkeys, n, nil, rkeys, src.Len(), sel)
			vs.record("join", len(lidx))
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
			src := st.vp.cur
			sel := vs.atomSel(st, src)
			lkeys := make([][]uint32, len(st.keyAccCols))
			for k, ac := range st.keyAccCols {
				lkeys[k] = cols[ac]
			}
			rkeys := make([][]uint32, len(st.keyAtom))
			for k, li := range st.keyAtom {
				rkeys[k] = src.Col(li)
			}
			keep := colset.AntiJoin(lkeys, n, nil, rkeys, src.Len(), sel)
			vs.record("antijoin", len(keep))
			for ci, col := range cols {
				if col != nil {
					cols[ci] = colset.Gather(col, keep)
				}
			}
			n = len(keep)
		case stepFilter:
			keep, err := vs.runFilter(st, cols, n)
			if err != nil {
				return err
			}
			vs.record("filter", len(keep))
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
	return vs.emit(vr, cols, n, round)
}

// runFilter evaluates a comparison step over the accumulated valuation
// rows. Equality is code equality; ordering comparisons decode through
// the dictionary and reuse compareValues, so type errors surface
// exactly as on the row engine. Results are memoized per code pair.
func (vs *vecStratum) runFilter(st *vecStep, cols [][]uint32, n int) ([]int32, error) {
	code := func(col int, c uint32, i int) uint32 {
		if col >= 0 {
			return cols[col][i]
		}
		return c
	}
	keep := make([]int32, 0, n)
	if st.op == "=" || st.op == "!=" {
		want := st.op == "="
		if st.neg {
			want = !want
		}
		for i := 0; i < n; i++ {
			eq := code(st.lCol, st.lCode, i) == code(st.rCol, st.rCode, i)
			if eq == want {
				keep = append(keep, int32(i))
			}
		}
		return keep, nil
	}
	if st.cmpCache == nil {
		st.cmpCache = map[uint64]cmpResult{}
	}
	for i := 0; i < n; i++ {
		lc := code(st.lCol, st.lCode, i)
		rc := code(st.rCol, st.rCode, i)
		k := uint64(lc)<<32 | uint64(rc)
		res, ok := st.cmpCache[k]
		if !ok {
			holds, err := compareValues(st.op, vs.dict.Value(lc), vs.dict.Value(rc))
			res = cmpResult{holds: holds, err: err}
			st.cmpCache[k] = res
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
func (vs *vecStratum) emit(vr *vecRule, cols [][]uint32, n, round int) error {
	if vs.p.stats != nil {
		vs.p.stats.Firings[vr.r.id] += n
	}
	hp := vr.headPred
	row := make([]uint32, len(hp.labels))
	added := 0
	for i := 0; i < n; i++ {
		vs.emitted++
		if vs.g != nil && vs.emitted%inRoundCheckInterval == 0 {
			if err := vs.guardCheck(round, hp.pred); err != nil {
				return err
			}
		}
		for li := range hp.labels {
			if c := vr.headCols[li]; c >= 0 {
				row[li] = cols[c][i]
			} else {
				row[li] = vr.headCodes[li]
			}
		}
		if hp.member.Add(row) {
			hp.batch.AppendRow(row)
			added++
		}
	}
	vs.record("emit", added)
	return nil
}

// guardCheck mirrors evalCtx.inRoundCheck for the vectorized emit loop.
func (vs *vecStratum) guardCheck(round int, pred string) error {
	invented := 0
	if st := vs.p.stats; st != nil {
		invented = st.Invented
	}
	err := vs.g.Check(round, func() int { return vs.total + vs.emitted }, invented)
	if err != nil && vs.p.opts.Tracer != nil {
		vs.p.emit(obs.Event{
			Kind:    obs.KindGuardCheck,
			Stratum: vs.g.Stratum(),
			Round:   round,
			Pred:    pred,
			Detail:  err.Error(),
		})
	}
	return err
}

// traceVecKernels reports the stratum's kernel counters as
// deterministic vec.kernel events, in kernel-name order.
func (vs *vecStratum) traceVecKernels(stratum int) {
	p := vs.p
	if !p.tracing() {
		return
	}
	names := make([]string, 0, len(vs.kernels))
	for name := range vs.kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ks := vs.kernels[name]
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
// plan (vs.total), since the derived rows reach the fact set only when
// the fixpoint is reached. cur is the run's private copy of E
// (runGuarded cloned it): the batches are encoded from it in key order,
// and materialize grows it in place.
func (p *Program) semiNaiveVectorized(vs *vecStratum, cur *FactSet, counter *int64) (*FactSet, error) {
	vs.bind(p, cur)
	delta := 0
	err := p.deltaRounds(func() int { return vs.total }, func(round int) (int, error) {
		vs.total += delta // the merge of the previous round's delta
		vs.emitted = 0
		for _, vr := range vs.rules {
			if round == 0 {
				if err := vs.runPass(vr, -1, 0); err != nil {
					return 0, fmt.Errorf("%w (in rule %s)", err, vr.r)
				}
				continue
			}
			for _, si := range vr.posSteps {
				if vr.steps[si].vp.delta == nil {
					continue
				}
				if err := vs.runPass(vr, si, round); err != nil {
					return 0, fmt.Errorf("%w (in rule %s)", err, vr.r)
				}
			}
		}
		delta = vs.advance()
		return delta, nil
	})
	if err != nil {
		return nil, err
	}
	vs.materialize(cur)
	vs.traceVecKernels(p.curStratum())
	return cur, nil
}
