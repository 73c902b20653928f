package engine

import (
	"fmt"
	"slices"
)

// Stratum plans. Appendix B gives each stratum one operator. Which
// executor runs it, and whether the incremental maintainer keeps it, is
// decided here once per program, by one classifier that runs lazily on
// the first Run, Explain or NewMaintainer: a program compiled and never
// run pays nothing for it or for the columnar lowering.

// executor is the evaluation path of one stratum.
type executor int

const (
	execOneStep         executor = iota // the one-step inflationary operator to a fixpoint
	execSemiNaive                       // delta iteration on the row loop
	execColumnar                        // delta iteration on the columnar kernels
	execNonInflationary                 // the non-inflationary operator over the whole program
)

var execNames = [...]string{"one-step inflationary", "semi-naive", "semi-naive (vectorized)", "non-inflationary"}

func (x executor) String() string { return execNames[x] }

// reason is why a plan takes a slower path: the first rule that forces
// it and the construct in it, or, without a rule, the program's
// semantics or an earlier stratum left unmaintained.
type reason struct {
	rule      *crule
	construct string
}

func (r *reason) String() string {
	if r.rule == nil {
		return r.construct
	}
	return fmt.Sprintf("rule #%d: %s", r.rule.id, r.construct)
}

// stratumPlan is the classification of one stratum.
type stratumPlan struct {
	rules []*crule
	exec  executor
	vec   *vecStratum // the columnar lowering, when exec is execColumnar
	// row is what kept the stratum off the kernels: nil on them, and
	// when vectorization is off, since the row engine was asked for.
	row *reason

	// maintWhy is why the incremental maintainer recomputes the stratum
	// instead of keeping it by delete/rederive; nil when it keeps it.
	maintWhy *reason
	heads    []string // predicates the stratum defines

	// once is set on a one-step stratum whose first step is provably
	// its fixpoint (settlesInOneStep): no step confirms it.
	once bool
}

// plan returns the program's stratum plans, classifying on first use,
// and its maintained prefix: the strata below prefix are maintained
// incrementally, the rest are recomputed.
func (p *Program) plan() (strata []stratumPlan, prefix int) {
	p.planOnce.Do(func() {
		blocks := p.strata
		if p.opts.NonInflationary {
			// The operator is not monotone, so stratification does not
			// apply: it runs over the whole program as one block.
			blocks = [][]*crule{slices.Concat(p.strata...)}
		}
		p.plans = make([]stratumPlan, len(blocks))
		p.prefix = len(blocks)
		for i, rules := range blocks {
			sp := &p.plans[i]
			p.classify(sp, rules)
			if sp.maintWhy != nil {
				p.prefix = min(p.prefix, i)
			} else if p.prefix < i {
				sp.maintWhy = &reason{construct: fmt.Sprintf("after stratum %d", p.prefix)}
			}
		}
	})
	return p.plans, p.prefix
}

// classify fills in one stratum's plan, walking its rules once. The
// maintained fragment is deliberately conservative, since recomputation
// is always correct (see maintConstruct).
func (p *Program) classify(sp *stratumPlan, rules []*crule) {
	sp.rules = rules
	for _, r := range rules {
		if !slices.Contains(sp.heads, r.head.pred) {
			sp.heads = append(sp.heads, r.head.pred)
		}
	}
	if p.opts.NonInflationary {
		// The operator deletes non-rederivable facts on every step; no
		// stratum is maintainable.
		sp.exec = execNonInflationary
		sp.maintWhy = &reason{construct: "non-inflationary semantics"}
		return
	}
	var vs *vecStratum
	if p.opts.Vectorize {
		vs, sp.row = compileVecStratum(rules)
	}
	sound := p.opts.SemiNaive
	for _, r := range rules {
		sound = sound && semiNaiveSound(r, sp.heads)
		if construct := maintConstruct(r); construct != "" && sp.maintWhy == nil {
			sp.maintWhy = &reason{rule: r, construct: construct}
		}
	}
	switch {
	case sound && vs != nil:
		sp.exec, sp.vec = execColumnar, vs
	case sound:
		sp.exec = execSemiNaive
	default:
		sp.once = !p.reference && settlesInOneStep(rules, sp.heads)
	}
}

// headConstruct names a head outside the association-only fragment the
// kernels and the maintainer share, or "" for a plain association head.
func headConstruct(r *crule) string {
	switch h := r.head; {
	case h.negated:
		return "deletion head"
	case r.inventive:
		return "oid invention"
	case h.kind == hClass:
		return "class head"
	case h.kind == hFunc:
		return "data-function head"
	case h.tupleVar != "":
		return "head tuple variable"
	}
	return ""
}

// forcesRow reports whether r keeps its stratum on the one-step
// operator: a deletion, oid invention, a class head (o-value overwrites)
// or active-domain negation.
func forcesRow(r *crule) bool {
	return r.head.negated || r.inventive || r.head.kind == hClass || r.universal
}

// semiNaiveSound reports whether delta iteration is sound for a rule of
// a stratum defining heads: with no row-forcing construct (forcesRow)
// the inflationary fixpoint is the least one, and the rule may not read
// a data function the stratum defines, whose new facts reach it through
// no positive literal.
func semiNaiveSound(r *crule, heads []string) bool {
	return !forcesRow(r) && !slices.ContainsFunc(r.funcs, func(fn string) bool { return slices.Contains(heads, fn) })
}

// maintConstruct names the first construct of r outside the maintained
// fragment, or "": plain association heads, no negated predicate
// literals and no data-function reads. Comparisons and built-ins
// evaluate over the bindings only.
func maintConstruct(r *crule) string {
	if construct := headConstruct(r); construct != "" {
		return construct
	}
	switch {
	case r.negates:
		return "negation"
	case len(r.funcs) > 0:
		return "data-function read"
	}
	return ""
}

// settlesInOneStep reports whether a one-step stratum defining heads
// reaches its fixpoint in its first step, so that the step that would
// only confirm it is not run. It holds when no rule deletes, enumerates
// the active domain or reads a predicate the stratum defines (through a
// positive or negated literal or a data-function read): a second step
// would then match every body as the first did, over the same facts,
// and every head it instantiated would be satisfied by the first step's
// result, which holds each association and data-function fact and, for
// each invention, an object satisfying its head. A class head that
// writes a known oid is satisfied only when one firing wrote that oid,
// so besides inventions the stratum may hold one isa step per super
// class and no other class head, and no class head may read an object
// through a tuple variable or a copy source, which can read a class the
// stratum writes. An isa step may not write the class of an invention:
// it can rewrite the object that satisfied the invention's head in the
// first step, so that the head holds of nothing in the second.
func settlesInOneStep(rules []*crule, heads []string) bool {
	supers, invented := map[string]bool{}, map[string]bool{}
	for _, r := range rules {
		h := r.head
		if h.negated || r.universal || r.readsAny(func(p string) bool { return slices.Contains(heads, p) }) != "" {
			return false
		}
		if h.kind == hClass {
			switch {
			case r.isa != nil:
				if supers[h.pred] || invented[h.pred] {
					return false
				}
				supers[h.pred] = true
			case !r.inventive || h.tupleVar != "" || h.copyFrom != "" || supers[h.pred]:
				return false
			default:
				invented[h.pred] = true
			}
		}
	}
	return true
}
