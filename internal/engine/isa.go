package engine

import (
	"slices"

	"logres/internal/types"
	"logres/internal/value"
)

// isaStep is the compiled form of a generated isa-propagation rule
// `super(X) <- sub(X)` (§2.1, §3.1): every object of sub is an object of
// super with the same oid, whose super o-value is the sub's o-value
// projected onto super's effective type. A class fact is keyed by its oid
// (objects as flat predicates keyed by oid, *Mapping Objects to
// Persistent Predicates*), so checking one object is an oid lookup and a
// comparison of the labels super declares; no environment is built.
//
// The step replaces the rule's compiled body and head in oneStep under
// either operator, and is equivalent to matchBody + instantiateHead over
// them: the same facts enter Δ+. Over a full pass, Stats.Firings, the
// in-round step count, the in-round guard checks and the non-inflationary
// re-emission advance exactly as the matcher's would. Over a run input
// marked closed under the schema's isa steps, a pass visits only the
// objects that can emit (isaPass), and those counters advance once per
// visit: a step whose sub and super classes did not change fires 0 times.
// The compiled body and head stay on the crule for the analyses
// (stratification, footprints, Explain) and the differential test.
type isaStep struct {
	sub, super string
	eff        types.Tuple // super's effective type
}

// newIsaStep compiles the generated rule r, `super(X) <- sub(X)`.
func newIsaStep(r *crule) *isaStep {
	return &isaStep{sub: r.body[0].pred, super: r.head.pred, eff: r.head.eff}
}

// isaPass evaluates the generated rule r in one pass over the objects of
// its sub class, adding to dplus every super fact that is missing or
// disagrees with the sub object (or, under the non-inflationary
// operator, re-emitting the super fact that agrees).
//
// When the run's input is closed under the step (Program.isaBase), an
// object whose sub and super facts both equal the input's agrees, since
// the step reads nothing else: the pass visits only the others, in key
// order. A sub object with a nil oid reads every super object, so its
// class takes the full pass.
func (c *evalCtx) isaPass(r *crule, dplus *FactSet) error {
	s := r.isa
	var err error
	visit := func(obj Fact) bool {
		c.steps++
		if c.g != nil && c.steps%inRoundCheckInterval == 0 {
			if err = c.p.inRoundCheck(c.g, c.round, s.sub, c.factCount, c.invented()); err != nil {
				return false
			}
		}
		if c.stats != nil {
			c.stats.Firings[r.id]++
		}
		c.emitted++
		if obj.OID.IsNil() {
			c.isaInvent(r, obj.Tuple, dplus)
			return true
		}
		cur, ok := c.f.HasOID(s.super, obj.OID)
		if ok && agreesOn(s.eff, obj.Tuple, cur.Tuple, nil) {
			if c.reemit {
				dplus.Add(cur)
			}
			return true
		}
		dplus.Add(Fact{Pred: s.super, IsClass: true, OID: obj.OID, Tuple: overlay(s.eff, obj.Tuple, cur.Tuple)})
		return true
	}
	// Over an input with no sub object every sub object changed: the
	// full pass visits the same objects in the same order, without the
	// diff.
	base := c.p.isaBase
	if _, nilSub := c.f.HasOID(s.sub, value.NilOID); base == nil || nilSub || base.Size(s.sub) == 0 {
		c.f.Each(s.sub, visit)
		return err
	}
	for _, obj := range c.isaChanged(s, base) {
		if !visit(obj) {
			break
		}
	}
	return err
}

// isaChanged returns, in key order, the objects of s's sub class in c.f
// whose oid has a sub or super fact that differs from base.
func (c *evalCtx) isaChanged(s *isaStep, base *FactSet) []Fact {
	var out []Fact
	for _, pred := range [2]string{s.sub, s.super} {
		adds, removes := c.f.DiffPred(base, pred)
		for _, f := range append(adds, removes...) {
			if obj, ok := c.f.HasOID(s.sub, f.OID); ok {
				out = append(out, obj)
			}
		}
	}
	SortFactsByKey(out)
	return slices.CompactFunc(out, func(a, b Fact) bool { return a.OID == b.OID })
}

// isaInvent is the step for a sub object with a nil oid, which has no
// identity to share: as in instantiateClassHead, the head is then an
// invention (Definition 8 point b), suppressed when some super object
// already agrees with the sub's o-value, and numbered at rule end.
func (c *evalCtx) isaInvent(r *crule, src value.Tuple, dplus *FactSet) {
	s := r.isa
	var buf [8]fixedArg
	if cur, ok := firstIn(c.f.lookup(s.super, s.eff, fixedBy(buf[:0], s.eff, src, nil)), !c.reemit, func(f Fact) bool {
		return agreesOn(s.eff, src, f.Tuple, nil)
	}); ok {
		if c.reemit {
			dplus.Add(cur)
		}
		return
	}
	c.inventions = append(c.inventions, invention{fact: Fact{Pred: s.super, IsClass: true, Tuple: overlay(s.eff, src, value.Tuple{})}})
}

// agreesOn reports whether existing holds, with an equal value, every
// component of src whose label eff declares, except the labels of skip
// (a head's explicitly specified components, which the caller checks
// against their own values). It allocates nothing.
func agreesOn(eff types.Tuple, src, existing value.Tuple, skip []fixedArg) bool {
	for i := 0; i < src.Len(); i++ {
		f := src.Field(i)
		if _, inEff := eff.Get(f.Label); !inEff || specifies(skip, f.Label) {
			continue
		}
		got, ok := existing.Get(f.Label)
		if !ok || !value.Equal(got, f.Value) {
			return false
		}
	}
	return true
}

// fixedBy appends to out, as fixed arguments, the components of src that
// agreesOn(eff, src, ·, skip) compares.
func fixedBy(out []fixedArg, eff types.Tuple, src value.Tuple, skip []fixedArg) []fixedArg {
	for i := 0; i < src.Len(); i++ {
		f := src.Field(i)
		if _, inEff := eff.Get(f.Label); inEff && !specifies(skip, f.Label) {
			out = append(out, fixedArg{label: f.Label, v: f.Value})
		}
	}
	return out
}

func specifies(comps []fixedArg, label string) bool {
	for _, f := range comps {
		if f.label == label {
			return true
		}
	}
	return false
}

// overlay is instance.Project(base overwritten by src's components, eff):
// each label of eff takes src's value, else base's, else null.
func overlay(eff types.Tuple, src, base value.Tuple) value.Tuple {
	fields := make([]value.Field, len(eff.Fields))
	for i, f := range eff.Fields {
		v, ok := src.Get(f.Label)
		if !ok {
			if v, ok = base.Get(f.Label); !ok {
				v = value.Null{}
			}
		}
		fields[i] = value.Field{Label: f.Label, Value: v}
	}
	return value.NewTuple(fields...)
}
