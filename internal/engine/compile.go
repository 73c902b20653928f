package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"logres/internal/ast"
	"logres/internal/guard"
	"logres/internal/hooks"
	"logres/internal/obs"
	"logres/internal/types"
)

// Options tunes compilation and evaluation.
type Options struct {
	// Budget bounds evaluation resources (rounds, derived facts,
	// invented oids, wall-clock); exhausting an axis aborts with a
	// *BudgetError. The zero value applies only the DefaultMaxRounds
	// round bound.
	Budget Budget
	// Ctx cancels evaluation between fixpoint rounds; aborts surface as
	// *CanceledError and leave the caller's state untouched. nil means
	// context.Background(). Program.RunContext overrides it per call.
	Ctx context.Context
	// SemiNaive enables delta iteration on eligible strata.
	SemiNaive bool
	// NonInflationary selects the non-inflationary semantics (the paper's
	// §1: rules are parametric in their semantics): derived facts persist
	// only while re-derivable, the extensional base always persists, and
	// the result is undefined (an error) when no fixpoint is reached.
	// Stratification and semi-naive evaluation do not apply.
	NonInflationary bool
	// Workers must be 0 (unset) or 1: evaluation is serial, and Compile
	// rejects any other value.
	//
	// Deprecated: leave Workers unset.
	Workers int
	// Shards must be 0 (unset) or 1: a FactSet has one layout, and
	// Compile rejects any other value.
	//
	// Deprecated: leave Shards unset.
	Shards int
	// Tracer receives typed evaluation events (stratum/round boundaries,
	// rule firings, oid invention, budget consumption, aborts).
	// nil (the default) disables tracing; every emission site is behind a
	// nil check, so the untraced hot path pays nothing.
	Tracer obs.Tracer
	// Vectorize (on in DefaultOptions) evaluates eligible semi-naive
	// strata over columnar batches (internal/colset): the run's fact set
	// is dictionary-encoded into per-predicate column batches, rule
	// bodies run as vectorized select/join/anti-join kernels, the
	// semi-naive delta stays in code space between rounds, and a
	// stratum's derived rows stay there until a read decodes the ones it
	// needs. A stratum stays on the row engine, which remains the
	// semantics oracle, when a rule uses a construct with no columnar
	// counterpart: oid invention, deletion, class or data-function
	// heads, head or body tuple variables, class atoms, built-ins,
	// data-function reads, arithmetic, binding comparisons or
	// active-domain negation. Results are bit-identical either way. The
	// choice is made once per program (see Program.Explain).
	Vectorize bool
}

// DefaultMaxRounds bounds the one-step applications of a fixpoint whose
// Budget.MaxRounds is 0: the paper's semantics does not guarantee
// termination (Appendix B), so runaway programs are reported as errors.
const DefaultMaxRounds = 100000

// DefaultOptions returns the standard evaluation options: semi-naive,
// columnar wherever a stratum compiles to the kernels and the row loop
// everywhere else. A stratified program gets its perfect model (the
// inflationary semantics within each stratum); any other program, the
// inflationary semantics of the whole program as one block.
func DefaultOptions() Options {
	return Options{SemiNaive: true, Vectorize: true}
}

// Program is a compiled rule set, ready to evaluate: a compiled part,
// which never changes once Compile returns, and a per-run part. Fork
// gives a caller its own per-run part over the same compiled part, so
// one compilation serves any number of runs, concurrent ones included.
type Program struct {
	*compiled
	opts Options

	stats *Stats
	guard *guard.Guard

	// lastFirings is the cumulative Firings snapshot at the previous
	// round boundary; traceFirings diffs against it to emit per-round
	// rule.fire events. Reset on every Run.
	lastFirings map[int]int

	// isaBase is the running Run's input when it is marked closed under
	// schema's isa steps (runGuarded): an isa pass then visits only the
	// objects whose facts differ from it (isaPass).
	isaBase *FactSet
}

// compiled is what Compile derives from a schema, a rule set and the
// options that fix the semantics (SemiNaive, Vectorize, NonInflationary).
// A run only reads it; the stratum plans and the footprint are computed
// on first use, once.
type compiled struct {
	schema  *types.Schema
	classes []string // the schema's classes, sorted
	rules   []*crule
	denials []*crule

	strata     [][]*crule
	stratified bool
	// reference is hooks.PlanReference as Compile read it.
	reference bool
	// plans and prefix are the stratum plans and the maintained
	// prefix, set once, on first use (see plan).
	planOnce sync.Once
	plans    []stratumPlan
	prefix   int
	// fp is the program's footprint, set once, on first use (see
	// Footprint).
	fpOnce sync.Once
	fp     RuleFootprint
	// addedFrom and addedTo bound the ids of the rules and denials Extend
	// compiled over its base; the range is empty in any other program.
	addedFrom, addedTo int
}

// added reports whether Extend compiled r over the program's base.
func (p *compiled) added(r *crule) bool { return r.id >= p.addedFrom && r.id < p.addedTo }

// Schema returns the schema the program was compiled against.
func (p *Program) Schema() *types.Schema { return p.schema }

// NumRules returns the number of compiled rules (including generated
// constraint rules).
func (p *Program) NumRules() int { return len(p.rules) }

// SetTracer attaches (or, with nil, detaches) an evaluation tracer
// after compilation: the gated benchmark's per-layer run and tests use
// it to trace one compiled program.
func (p *Program) SetTracer(t obs.Tracer) { p.opts.Tracer = t }

// Fork returns a program over p's compiled part with a per-run part of
// its own: opts' run options (Budget, Ctx, Tracer) and no statistics
// yet. The options that fix the semantics stay p's, since the compiled
// part was built under them. Forks run concurrently with each other and
// with p.
func (p *Program) Fork(opts Options) *Program {
	opts.SemiNaive, opts.Vectorize, opts.NonInflationary = p.opts.SemiNaive, p.opts.Vectorize, p.opts.NonInflationary
	return &Program{compiled: p.compiled, opts: opts}
}

// Options returns the options p runs under.
func (p *Program) Options() Options { return p.opts }

// Shares reports whether p and q are forks of one compilation.
func (p *Program) Shares(q *Program) bool { return q != nil && p.compiled == q.compiled }

// Compile analyses a rule set against a schema: it resolves predicates and
// labels, orders rule bodies, checks the safety requirements of §3.1 and
// the oid-unification legality conditions, determines invention, generates
// the active isa-propagation constraints from the type equations, and
// computes the stratification.
func Compile(schema *types.Schema, rules []*ast.Rule, opts Options) (*Program, error) {
	classes := schema.NamesOf(types.DeclClass)
	sort.Strings(classes)
	return compileWith(schema, classes, nil, rules, opts, func(first int) ([]*crule, error) {
		var isa []*crule
		for i, r := range generateIsaRules(schema) {
			cr, err := compileRule(schema, r, first+i)
			if err != nil {
				return nil, fmt.Errorf("%v (in rule %s)", err, r)
			}
			cr.isa = newIsaStep(cr)
			isa = append(isa, cr)
		}
		return isa, nil
	})
}

// CompileOver is Compile(p.Schema(), rules, opts) with p's compiled isa
// steps in place of compiling the schema's generated rules again: a rule
// set run under a schema some program already compiled pays only for
// its own rules. Rule ids are numbered as Compile numbers them.
func (p *Program) CompileOver(rules []*ast.Rule, opts Options) (*Program, error) {
	return compileWith(p.schema, p.classes, nil, rules, opts, p.isaSteps)
}

// Extend is Compile(p.Schema(), R ∪ rules, opts), where R is the rule set
// p was compiled from: p's compiled rules, denials and isa steps are
// taken as they are, so only rules are compiled. Rule ids are numbered as
// Compile numbers them. The program remembers which rules it added: its
// footprint names their writes (RuleFootprint.Added), and its delta
// audit checks their denials (CheckDenialsReading).
func (p *Program) Extend(rules []*ast.Rule, opts Options) (*Program, error) {
	var own []*crule
	for _, r := range p.rules {
		if r.isa == nil {
			own = append(own, r)
		}
	}
	return compileWith(p.schema, p.classes, &compiled{rules: own, denials: p.denials}, rules, opts, p.isaSteps)
}

// isaSteps returns copies of p's compiled isa steps, numbered from first.
func (p *Program) isaSteps(first int) ([]*crule, error) {
	var isa []*crule
	for _, r := range p.rules {
		if r.isa != nil {
			cr := *r
			cr.id = first + len(isa)
			isa = append(isa, &cr)
		}
	}
	return isa, nil
}

// compileWith compiles rules against schema after the compiled rules and
// denials of base, if any, which keep their ids, and completes the
// program with the schema's compiled isa steps, numbered after them all.
func compileWith(schema *types.Schema, classes []string, base *compiled, rules []*ast.Rule, opts Options, isaSteps func(first int) ([]*crule, error)) (*Program, error) {
	if opts.Workers != 0 && opts.Workers != 1 {
		return nil, fmt.Errorf("engine: Options.Workers = %d: parallel evaluation was removed; only 0 or 1 is accepted", opts.Workers)
	}
	if opts.Shards != 0 && opts.Shards != 1 {
		return nil, fmt.Errorf("engine: Options.Shards = %d: sharded fact sets were removed; only 0 or 1 is accepted", opts.Shards)
	}
	if hooks.Compiled != nil {
		hooks.Compiled(len(rules))
	}
	p := &Program{compiled: &compiled{schema: schema, classes: classes}, opts: opts}
	first := 0
	if base != nil {
		p.rules = append(p.rules, base.rules...)
		p.denials = append(p.denials, base.denials...)
		first = len(p.rules) + len(p.denials)
		p.addedFrom, p.addedTo = first, first+len(rules)
	}
	for i, r := range rules {
		cr, err := compileRule(schema, r, first+i)
		if err != nil {
			return nil, fmt.Errorf("%v (in rule %s)", err, r)
		}
		if cr.head == nil {
			p.denials = append(p.denials, cr)
		} else {
			p.rules = append(p.rules, cr)
		}
	}
	isa, err := isaSteps(first + len(rules))
	if err != nil {
		return nil, err
	}
	p.rules = append(p.rules, isa...)
	p.computeStrata()
	return p, nil
}

// generateIsaRules produces the active constraints implied by the isa
// hierarchy: for every `C1 isa C2`, the rule `c2(X) <- c1(X).` which
// propagates membership (with the shared oid) up the hierarchy.
func generateIsaRules(schema *types.Schema) []*ast.Rule {
	var out []*ast.Rule
	for _, e := range schema.IsaEdges() {
		if !schema.IsClass(e.Sub) || !schema.IsClass(e.Super) {
			continue
		}
		v := ast.Var{Name: "X"}
		out = append(out, &ast.Rule{
			Head: &ast.Literal{Pred: e.Super, Args: []ast.Arg{{Term: v}}},
			Body: []ast.Literal{{Pred: e.Sub, Args: []ast.Arg{{Term: v}}}},
		})
	}
	return out
}

func compileRule(schema *types.Schema, r *ast.Rule, id int) (*crule, error) {
	cr := &crule{id: id, src: r}
	if r.Head != nil {
		h, err := resolveHead(schema, *r.Head)
		if err != nil {
			return nil, err
		}
		cr.head = h
	}
	for _, l := range r.Body {
		rl, err := resolveLiteral(schema, l)
		if err != nil {
			return nil, err
		}
		cr.body = append(cr.body, rl)
	}

	vt, err := inferVarTypes(schema, cr)
	if err != nil {
		return nil, err
	}
	if err := checkHierarchies(schema, cr, vt); err != nil {
		return nil, err
	}
	if err := checkConstants(schema, cr); err != nil {
		return nil, err
	}
	bound, err := orderBody(cr, vt)
	if err != nil {
		return nil, err
	}
	if err := analyzeHead(schema, cr, bound); err != nil {
		return nil, err
	}
	for _, l := range cr.body {
		cr.negates = cr.negates || l.negated && (l.kind == pkClass || l.kind == pkAssoc)
		cr.universal = cr.universal || len(l.adVars) > 0
	}
	cr.funcs = ruleFuncReadsAll(cr)
	var lits []ast.Literal
	if r.Head != nil {
		lits = append(lits, *r.Head)
	}
	lits = append(lits, r.Body...)
	cr.vars = ast.VarSet(lits)
	sort.Strings(cr.vars)
	return cr, nil
}

// varInfo is the inferred static information about one variable.
type varInfo struct {
	typ     types.Type
	adKey   string   // active-domain key
	classes []string // classes the variable ranges over as an oid
}

type varTypes map[string]*varInfo

func (vt varTypes) note(schema *types.Schema, name string, t types.Type, adKey string, class string) error {
	vi := vt[name]
	if vi == nil {
		vi = &varInfo{}
		vt[name] = vi
	}
	if class != "" {
		vi.classes = append(vi.classes, class)
	}
	if t == nil {
		return nil
	}
	if vi.typ == nil {
		vi.typ = t
		vi.adKey = adKey
		return nil
	}
	if types.EqualType(vi.typ, t) {
		return nil
	}
	// Two class types are jointly legal when in one hierarchy; other
	// types must be compatible under refinement (strong typing, §3.1).
	if n1, ok1 := vi.typ.(types.Named); ok1 {
		if n2, ok2 := t.(types.Named); ok2 && schema.IsClass(n1.Name) && schema.IsClass(n2.Name) {
			if schema.SameHierarchy(n1.Name, n2.Name) {
				return nil
			}
			return fmt.Errorf("engine: variable %s ranges over classes %s and %s of different hierarchies", name, n1.Name, n2.Name)
		}
	}
	if !schema.Compatible(vi.typ, t) {
		return fmt.Errorf("engine: variable %s used with incompatible types %s and %s", name, vi.typ, t)
	}
	return nil
}

// adKeyOf derives the active-domain key of a declared type.
func adKeyOf(t types.Type) string {
	return types.Canon(t.String())
}

// inferVarTypes assigns each variable the declared type of the positions
// it occupies.
func inferVarTypes(schema *types.Schema, cr *crule) (varTypes, error) {
	vt := varTypes{}
	noteLit := func(kind predKind, pred string, eff types.Tuple, selfTerm ast.Term, comps []compArg, tupleVars []string) error {
		if selfTerm != nil {
			if v, ok := selfTerm.(ast.Var); ok {
				if err := vt.note(schema, v.Name, types.Named{Name: pred}, pred, pred); err != nil {
					return err
				}
			}
		}
		for _, tv := range tupleVars {
			if kind == pkClass {
				if err := vt.note(schema, tv, types.Named{Name: pred}, pred, pred); err != nil {
					return err
				}
			} else {
				if err := vt.note(schema, tv, eff, "$tuple$"+pred, ""); err != nil {
					return err
				}
			}
		}
		for _, c := range comps {
			v, ok := c.term.(ast.Var)
			if !ok {
				continue
			}
			f, found := eff.Get(c.label)
			if !found {
				continue
			}
			class := ""
			if n, isNamed := f.Type.(types.Named); isNamed && schema.IsClass(n.Name) {
				class = types.Canon(n.Name)
			}
			if err := vt.note(schema, v.Name, f.Type, adKeyOf(f.Type), class); err != nil {
				return err
			}
		}
		return nil
	}
	for _, l := range cr.body {
		if l.kind == pkClass || l.kind == pkAssoc {
			if err := noteLit(l.kind, l.pred, l.eff, l.selfTerm, l.comps, l.tupleVars); err != nil {
				return nil, err
			}
		}
	}
	if h := cr.head; h != nil {
		switch h.kind {
		case hClass:
			var tvs []string
			if h.tupleVar != "" {
				tvs = []string{h.tupleVar}
			}
			if err := noteLit(pkClass, h.pred, h.eff, h.selfTerm, h.comps, tvs); err != nil {
				return nil, err
			}
		case hAssoc:
			var tvs []string
			if h.tupleVar != "" {
				tvs = []string{h.tupleVar}
			}
			if err := noteLit(pkAssoc, h.pred, h.eff, nil, h.comps, tvs); err != nil {
				return nil, err
			}
		}
	}
	return vt, nil
}

// checkHierarchies enforces the oid-unification rule of §3.1: a variable
// may only denote objects of classes within one generalization hierarchy.
func checkHierarchies(schema *types.Schema, cr *crule, vt varTypes) error {
	for name, vi := range vt {
		for i := 0; i < len(vi.classes); i++ {
			for j := i + 1; j < len(vi.classes); j++ {
				if !schema.SameHierarchy(vi.classes[i], vi.classes[j]) {
					return fmt.Errorf("engine: variable %s denotes objects of %s and %s, which share no generalization hierarchy",
						name, vi.classes[i], vi.classes[j])
				}
			}
		}
	}
	return nil
}

// checkConstants statically type-checks constant component arguments.
func checkConstants(schema *types.Schema, cr *crule) error {
	check := func(eff types.Tuple, comps []compArg, pred string) error {
		for _, c := range comps {
			k, ok := c.term.(ast.Const)
			if !ok {
				continue
			}
			f, found := eff.Get(c.label)
			if !found {
				continue
			}
			if k.Val.Kind().String() == "null" {
				continue // null is legal in any optional position
			}
			if err := schema.CheckValue(f.Type, k.Val, types.NilAllowed); err != nil {
				return fmt.Errorf("engine: constant %s is not a legal %s for %s.%s", k.Val, f.Type, pred, c.label)
			}
		}
		return nil
	}
	for _, l := range cr.body {
		if l.kind == pkClass || l.kind == pkAssoc {
			if err := check(l.eff, l.comps, l.pred); err != nil {
				return err
			}
		}
	}
	if h := cr.head; h != nil && (h.kind == hClass || h.kind == hAssoc) {
		if err := check(h.eff, h.comps, h.pred); err != nil {
			return err
		}
	}
	return nil
}

// orderBody reorders body literals into an executable sequence using a
// two-tier greedy strategy: pick ready positive literals, ready builtins
// and comparisons first; fall back to negated literals (whose unbound
// variables then range over the active domain, §2.1). It returns the
// variables bound after executing the whole body.
func orderBody(cr *crule, vt varTypes) (map[string]bool, error) {
	type slot struct {
		lit  resolvedLit
		used bool
	}
	slots := make([]slot, len(cr.body))
	for i, l := range cr.body {
		slots[i] = slot{lit: l}
	}
	bound := map[string]bool{}
	var ordered []resolvedLit
	for picked := 0; picked < len(slots); picked++ {
		idx := -1
		for i := range slots {
			if !slots[i].used && readyTier1(slots[i].lit, bound) {
				idx = i
				break
			}
		}
		if idx < 0 {
			for i := range slots {
				if !slots[i].used && slots[i].lit.negated && readyNegated(slots[i].lit, bound) {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			var stuck []string
			for i := range slots {
				if !slots[i].used {
					stuck = append(stuck, slots[i].lit.pred)
				}
			}
			return nil, fmt.Errorf("engine: unsafe rule: cannot order literals %v", stuck)
		}
		lit := slots[idx].lit
		slots[idx].used = true
		if lit.negated && (lit.kind == pkClass || lit.kind == pkAssoc) {
			// Record the variables that will range over the active domain.
			for _, v := range unboundPatternVars(lit, bound) {
				vi := vt[v]
				if vi == nil || vi.adKey == "" {
					return nil, fmt.Errorf("engine: variable %s occurs only in a negated literal and cannot be typed for active-domain enumeration", v)
				}
				lit.adVars = append(lit.adVars, adVar{name: v, key: vi.adKey})
			}
		}
		for _, v := range litBinds(lit, bound) {
			bound[v] = true
		}
		ordered = append(ordered, lit)
	}
	cr.body = ordered
	return bound, nil
}

// readyTier1 reports whether a literal can execute now without active-
// domain enumeration.
func readyTier1(l resolvedLit, bound map[string]bool) bool {
	switch l.kind {
	case pkClass, pkAssoc:
		if l.negated {
			// Fully-bound negation is a cheap check.
			for _, v := range litVars(l) {
				if !bound[v] {
					return false
				}
			}
		}
		return allTermsEvaluableOrPattern(l, func(v string) bool { return bound[v] })
	case pkCompare:
		left, right := l.args[0], l.args[1]
		if l.pred == "=" && !l.negated {
			if evaluable(left, bound) && (isPattern(right) || evaluable(right, bound)) {
				return true
			}
			if evaluable(right, bound) && (isPattern(left) || evaluable(left, bound)) {
				return true
			}
			return false
		}
		return evaluable(left, bound) && evaluable(right, bound)
	case pkBuiltin:
		return builtinReady(l, bound)
	}
	return false
}

// allTermsEvaluableOrPattern reports whether every argument of the
// predicate literal l is a pattern or has each of its variables bound.
func allTermsEvaluableOrPattern(l resolvedLit, bound func(string) bool) bool {
	check := func(t ast.Term) bool { return isPattern(t) || allBound(t, bound) }
	if l.selfTerm != nil && !check(l.selfTerm) {
		return false
	}
	for _, c := range l.comps {
		if !check(c.term) {
			return false
		}
	}
	return true
}

// readyNegated reports whether a negated predicate literal can execute
// with active-domain enumeration of its unbound pattern variables.
func readyNegated(l resolvedLit, bound map[string]bool) bool {
	if l.kind != pkClass && l.kind != pkAssoc {
		return false
	}
	return allTermsEvaluableOrPattern(l, func(v string) bool { return bound[v] })
}

// builtinReady reports whether a builtin has its input positions bound.
func builtinReady(l resolvedLit, bound map[string]bool) bool {
	ev := func(i int) bool { return evaluable(l.args[i], bound) }
	out := func(i int) bool { return isPattern(l.args[i]) || evaluable(l.args[i], bound) }
	if l.negated {
		for i := range l.args {
			if !ev(i) {
				return false
			}
		}
		return true
	}
	switch l.pred {
	case "member":
		return ev(1) && out(0)
	case "union", "intersection", "difference", "append":
		return ev(0) && ev(1) && out(2)
	case "count", "sum", "min", "max", "avg", "length":
		return ev(0) && out(1)
	case "nth":
		return ev(0) && ev(1) && out(2)
	}
	return false
}

// litVars returns all variables of a predicate literal.
func litVars(l resolvedLit) []string {
	var out []string
	if l.selfTerm != nil {
		out = append(out, termVars(l.selfTerm)...)
	}
	for _, c := range l.comps {
		out = append(out, termVars(c.term)...)
	}
	out = append(out, l.tupleVars...)
	for _, a := range l.args {
		out = append(out, termVars(a)...)
	}
	return out
}

// unboundPatternVars returns the pattern variables of a literal not yet
// bound.
func unboundPatternVars(l resolvedLit, bound map[string]bool) []string {
	var out []string
	seen := map[string]bool{}
	add := func(vars []string) {
		for _, v := range vars {
			if !bound[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	if l.selfTerm != nil {
		add(patternVars(l.selfTerm))
	}
	for _, c := range l.comps {
		add(patternVars(c.term))
	}
	add(l.tupleVars)
	return out
}

// litBinds returns the variables bound by executing a literal.
func litBinds(l resolvedLit, bound map[string]bool) []string {
	var out []string
	switch l.kind {
	case pkClass, pkAssoc:
		out = append(out, unboundPatternVars(l, bound)...)
	case pkCompare:
		if l.pred == "=" && !l.negated {
			left, right := l.args[0], l.args[1]
			if evaluable(left, bound) {
				out = append(out, patternVars(right)...)
			} else if evaluable(right, bound) {
				out = append(out, patternVars(left)...)
			}
		}
	case pkBuiltin:
		if l.negated {
			return nil
		}
		switch l.pred {
		case "member":
			out = append(out, patternVars(l.args[0])...)
		case "union", "intersection", "difference", "append", "nth":
			out = append(out, patternVars(l.args[2])...)
		case "count", "sum", "min", "max", "avg", "length":
			out = append(out, patternVars(l.args[1])...)
		}
	}
	return out
}

// analyzeHead validates the head against the bound variables: the safety
// requirements of §3.1, invention (unbound self), and the copy/unify
// semantics for head tuple variables (§3.1 cases a/b).
func analyzeHead(schema *types.Schema, cr *crule, bound map[string]bool) error {
	h := cr.head
	if h == nil {
		return nil // denial
	}
	requireBound := func(t ast.Term, what string) error {
		for _, v := range termVars(t) {
			if !bound[v] {
				return fmt.Errorf("engine: unsafe rule: head %s variable %s does not occur in the body", what, v)
			}
		}
		return nil
	}
	for _, c := range h.comps {
		if err := requireBound(c.term, "component"); err != nil {
			return err
		}
	}
	switch h.kind {
	case hFunc:
		if h.negated {
			// Deletion of function facts is supported; both args needed.
		}
		if h.fnArg != nil {
			if err := requireBound(h.fnArg, "function argument"); err != nil {
				return err
			}
		}
		return requireBound(h.fnMember, "function member")
	case hAssoc:
		if h.tupleVar != "" && !bound[h.tupleVar] {
			return fmt.Errorf("engine: unsafe rule: head tuple variable %s does not occur in the body", h.tupleVar)
		}
		return nil
	}
	// Classes.
	switch {
	case h.selfTerm != nil:
		if h.selfVar != "" && !bound[h.selfVar] {
			// Invention: legal only for positive heads (safety rule 1).
			if h.negated {
				return fmt.Errorf("engine: deletion head with unbound self variable %s", h.selfVar)
			}
			cr.inventive = true
			return nil
		}
		if h.selfVar == "" {
			if err := requireBound(h.selfTerm, "self"); err != nil {
				return err
			}
		}
	case h.tupleVar != "":
		if bound[h.tupleVar] {
			return nil // oid and values come from the binding
		}
		// §3.1 case a/b: C1(Y) <- C2(X) with Y unbound. Values are copied
		// from the single tuple variable ranging over a body class.
		if h.negated {
			return fmt.Errorf("engine: deletion head with unbound tuple variable %s", h.tupleVar)
		}
		var sources []struct{ pred, v string }
		for _, l := range cr.body {
			if l.kind == pkClass && !l.negated {
				for _, tv := range l.tupleVars {
					sources = append(sources, struct{ pred, v string }{l.pred, tv})
				}
			}
		}
		if len(sources) != 1 {
			return fmt.Errorf("engine: unsafe rule: head tuple variable %s does not occur in the body", h.tupleVar)
		}
		src := sources[0]
		if !schema.Compatible(types.Named{Name: h.pred}, types.Named{Name: src.pred}) {
			return fmt.Errorf("engine: classes %s and %s have incompatible types", h.pred, src.pred)
		}
		h.copyFrom = src.v
		if !schema.SameHierarchy(h.pred, src.pred) {
			cr.inventive = true // case a: copy with a new oid
		}
		// case b (same hierarchy): oid unified with the source object.
	default:
		// Class head with only component arguments: each firing denotes an
		// (existentially quantified) object — invention with the valuation-
		// domain dedup of Definition 7.
		if h.negated {
			return nil // deletion by attribute match
		}
		cr.inventive = true
	}
	return nil
}
