package algres

// A rewrite-based optimizer for algebra expressions. Passes:
//
//  1. selection cascade merging:      σc1(σc2(E))       → σ(c1 ∧ c2)(E)
//  2. selection pushdown over joins:  σc(E1 ⋈ E2)       → σc(E1) ⋈ E2
//     (when E1 covers c's attributes; conjunctions split first)
//  3. selection pushdown over set ops and rename
//  4. projection cascade fusion:      π a(π b(E))       → π a(E)
//  5. projection pushdown over join:  π a(E1 ⋈ E2)      → π(E1') ⋈ π(E2')
//     keeping the needed and join attributes on each side.
//
// Rewrites are semantics-preserving for set relations and applied to a
// fixpoint; Optimize never fails — expressions it cannot improve are
// returned unchanged.

// Optimize rewrites an expression given a catalog of base relation
// schemas.
func Optimize(e Expr, catalog map[string][]string) Expr {
	for i := 0; i < 10; i++ {
		next, changed := rewrite(e, catalog)
		e = next
		if !changed {
			break
		}
	}
	return e
}

// splitConj splits a condition into conjuncts.
func splitConj(c Cond) []Cond {
	if a, ok := c.(And); ok {
		return append(splitConj(a.L), splitConj(a.R)...)
	}
	return []Cond{c}
}

func conjoin(cs []Cond) Cond {
	c := cs[0]
	for _, x := range cs[1:] {
		c = And{L: c, R: x}
	}
	return c
}

func covers(attrs []string, cond Cond) bool {
	have := map[string]bool{}
	for _, a := range attrs {
		have[a] = true
	}
	for _, a := range cond.CondAttrs() {
		if !have[a] {
			return false
		}
	}
	return true
}

func rewrite(e Expr, cat map[string][]string) (Expr, bool) {
	switch x := e.(type) {
	case SelectE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		// 1. cascade merging
		if inner, ok := x.Input.(SelectE); ok {
			return SelectE{Input: inner.Input, Cond: And{L: x.Cond, R: inner.Cond}}, true
		}
		// 2. pushdown over join, conjunct by conjunct
		if j, ok := x.Input.(JoinE); ok {
			lAttrs, errL := j.L.Attrs(cat)
			rAttrs, errR := j.R.Attrs(cat)
			if errL == nil && errR == nil {
				var pushL, pushR, keep []Cond
				for _, c := range splitConj(x.Cond) {
					switch {
					case covers(lAttrs, c):
						pushL = append(pushL, c)
					case covers(rAttrs, c):
						pushR = append(pushR, c)
					default:
						keep = append(keep, c)
					}
				}
				if len(pushL) > 0 || len(pushR) > 0 {
					l, r := j.L, j.R
					if len(pushL) > 0 {
						l = SelectE{Input: l, Cond: conjoin(pushL)}
					}
					if len(pushR) > 0 {
						r = SelectE{Input: r, Cond: conjoin(pushR)}
					}
					var out Expr = JoinE{L: l, R: r}
					if len(keep) > 0 {
						out = SelectE{Input: out, Cond: conjoin(keep)}
					}
					return out, true
				}
			}
		}
		// 3. pushdown over set operations (both sides share the schema)
		switch s := x.Input.(type) {
		case UnionE:
			return UnionE{L: SelectE{Input: s.L, Cond: x.Cond}, R: SelectE{Input: s.R, Cond: x.Cond}}, true
		case DiffE:
			return DiffE{L: SelectE{Input: s.L, Cond: x.Cond}, R: SelectE{Input: s.R, Cond: x.Cond}}, true
		case IntersectE:
			return IntersectE{L: SelectE{Input: s.L, Cond: x.Cond}, R: SelectE{Input: s.R, Cond: x.Cond}}, true
		}
		return x, changed
	case ProjectE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		// 4. cascade fusion
		if inner, ok := x.Input.(ProjectE); ok {
			return ProjectE{Input: inner.Input, Cols: x.Cols}, true
		}
		// 5. pushdown over join
		if j, ok := x.Input.(JoinE); ok {
			lAttrs, errL := j.L.Attrs(cat)
			rAttrs, errR := j.R.Attrs(cat)
			if errL == nil && errR == nil {
				shared := map[string]bool{}
				rHas := map[string]bool{}
				for _, a := range rAttrs {
					rHas[a] = true
				}
				for _, a := range lAttrs {
					if rHas[a] {
						shared[a] = true
					}
				}
				needed := map[string]bool{}
				for _, a := range x.Cols {
					needed[a] = true
				}
				keepSide := func(attrs []string) []string {
					var out []string
					for _, a := range attrs {
						if needed[a] || shared[a] {
							out = append(out, a)
						}
					}
					return out
				}
				lKeep, rKeep := keepSide(lAttrs), keepSide(rAttrs)
				// Only rewrite if it actually narrows a side (otherwise we
				// loop forever re-introducing identical projections).
				if len(lKeep) < len(lAttrs) || len(rKeep) < len(rAttrs) {
					return ProjectE{
						Input: JoinE{
							L: ProjectE{Input: j.L, Cols: lKeep},
							R: ProjectE{Input: j.R, Cols: rKeep},
						},
						Cols: x.Cols,
					}, true
				}
			}
		}
		return x, changed
	case RenameE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		return x, changed
	case JoinE:
		l, cl := rewrite(x.L, cat)
		r, cr := rewrite(x.R, cat)
		return JoinE{L: l, R: r}, cl || cr
	case UnionE:
		l, cl := rewrite(x.L, cat)
		r, cr := rewrite(x.R, cat)
		return UnionE{L: l, R: r}, cl || cr
	case DiffE:
		l, cl := rewrite(x.L, cat)
		r, cr := rewrite(x.R, cat)
		return DiffE{L: l, R: r}, cl || cr
	case IntersectE:
		l, cl := rewrite(x.L, cat)
		r, cr := rewrite(x.R, cat)
		return IntersectE{L: l, R: r}, cl || cr
	case NestE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		return x, changed
	case UnnestE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		return x, changed
	case GroupE:
		in, changed := rewrite(x.Input, cat)
		x.Input = in
		return x, changed
	case FixE:
		base, cb := rewrite(x.Base, cat)
		// The step expression references the fixpoint relation, whose
		// schema equals the base's; extend the catalog for it.
		stepCat := cat
		if attrs, err := base.Attrs(cat); err == nil {
			stepCat = map[string][]string{}
			for k, v := range cat {
				stepCat[k] = v
			}
			stepCat[x.Name] = attrs
		}
		step, cs := rewrite(x.Step, stepCat)
		x.Base, x.Step = base, step
		return x, cb || cs
	}
	return e, false
}
