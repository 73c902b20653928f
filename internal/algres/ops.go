package algres

import (
	"fmt"
	"sort"

	"logres/internal/value"
)

// The extended relational algebra. All operators are pure: they return
// fresh relations.

// Select returns the tuples satisfying pred.
func Select(r *Relation, pred func(value.Tuple) bool) *Relation {
	out := NewRelation(r.attrs...)
	for _, t := range r.Tuples() {
		if pred(t) {
			out.Insert(t)
		}
	}
	return out
}

// SelectEqConst selects tuples whose attribute equals a constant.
func SelectEqConst(r *Relation, attr string, v value.Value) *Relation {
	return Select(r, func(t value.Tuple) bool {
		got, ok := t.Get(attr)
		return ok && value.Equal(got, v)
	})
}

// SelectEqAttr selects tuples where two attributes are equal.
func SelectEqAttr(r *Relation, a, b string) *Relation {
	return Select(r, func(t value.Tuple) bool {
		va, okA := t.Get(a)
		vb, okB := t.Get(b)
		return okA && okB && value.Equal(va, vb)
	})
}

// Project restricts the relation to the given attributes (duplicates
// eliminated, as associations are sets).
func Project(r *Relation, attrs ...string) (*Relation, error) {
	for _, a := range attrs {
		if !r.HasAttr(a) {
			return nil, fmt.Errorf("algres: project: unknown attribute %q", a)
		}
	}
	out := NewRelation(attrs...)
	for _, t := range r.Tuples() {
		fields := make([]value.Field, len(attrs))
		for i, a := range attrs {
			v, _ := t.Get(a)
			fields[i] = value.Field{Label: a, Value: v}
		}
		out.Insert(value.NewTuple(fields...))
	}
	return out, nil
}

// Rename renames attributes according to the mapping.
func Rename(r *Relation, mapping map[string]string) *Relation {
	attrs := make([]string, len(r.attrs))
	for i, a := range r.attrs {
		if n, ok := mapping[a]; ok {
			attrs[i] = n
		} else {
			attrs[i] = a
		}
	}
	out := NewRelation(attrs...)
	for _, t := range r.Tuples() {
		fields := make([]value.Field, t.Len())
		for i := 0; i < t.Len(); i++ {
			f := t.Field(i)
			label := f.Label
			if n, ok := mapping[label]; ok {
				label = n
			}
			fields[i] = value.Field{Label: label, Value: f.Value}
		}
		out.Insert(value.NewTuple(fields...))
	}
	return out
}

// appendKey appends t's packed join key on the shared attributes to
// buf (reused across tuples: the repeated string-concatenation key
// builder allocated per tuple per probe).
func appendKey(buf []byte, t value.Tuple, shared []string) []byte {
	buf = buf[:0]
	for _, a := range shared {
		v, _ := t.Get(a)
		buf = append(buf, v.Key()...)
		buf = append(buf, 0)
	}
	return buf
}

// Join computes the natural join: tuples agreeing on all shared
// attributes, concatenated. With no shared attributes it degenerates to
// the Cartesian product. The hash index is built on the smaller side and
// the larger side probes it; the result relation is canonical (a set
// keyed by tuple identity), so it is the same for either build side.
func Join(l, rR *Relation) *Relation {
	var shared []string
	for _, a := range l.attrs {
		if rR.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	attrs := append([]string{}, l.attrs...)
	for _, a := range rR.attrs {
		if !l.HasAttr(a) {
			attrs = append(attrs, a)
		}
	}
	out := NewRelation(attrs...)

	// Build on the smaller side, probe the larger: the index costs one
	// map insert per build tuple, the probe side only lookups.
	build, probeRel := rR, l
	buildIsRight := true
	if l.Len() < rR.Len() {
		build, probeRel = l, rR
		buildIsRight = false
	}
	index := make(map[string][]value.Tuple, build.Len())
	var buf []byte
	for _, t := range build.Tuples() {
		buf = appendKey(buf, t, shared)
		index[string(buf)] = append(index[string(buf)], t)
	}

	// combine concatenates a left and a right tuple in output attribute
	// order (left attributes, then right extras), whichever side was
	// probed.
	combine := func(lt, rt value.Tuple) value.Tuple {
		fields := make([]value.Field, 0, len(attrs))
		for i := 0; i < lt.Len(); i++ {
			fields = append(fields, lt.Field(i))
		}
		for i := 0; i < rt.Len(); i++ {
			f := rt.Field(i)
			if !l.HasAttr(f.Label) {
				fields = append(fields, f)
			}
		}
		return value.NewTuple(fields...)
	}
	for _, pt := range probeRel.Tuples() {
		buf = appendKey(buf, pt, shared)
		for _, bt := range index[string(buf)] {
			if buildIsRight {
				out.Insert(combine(pt, bt))
			} else {
				out.Insert(combine(bt, pt))
			}
		}
	}
	return out
}

// AntiJoin returns the tuples of l with no join partner in r (the
// complement used for safe negation).
func AntiJoin(l, rR *Relation) *Relation {
	var shared []string
	for _, a := range l.attrs {
		if rR.HasAttr(a) {
			shared = append(shared, a)
		}
	}
	// Membership is asymmetric (which left tuples have partners), so the
	// index is always on the right.
	present := make(map[string]bool, rR.Len())
	var buf []byte
	for _, t := range rR.Tuples() {
		buf = appendKey(buf, t, shared)
		present[string(buf)] = true
	}
	out := NewRelation(l.attrs...)
	for _, t := range l.Tuples() {
		buf = appendKey(buf, t, shared)
		if !present[string(buf)] {
			out.Insert(t)
		}
	}
	return out
}

// Union computes r ∪ s (schemas must match).
func Union(r, s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	out := r.Clone()
	for _, t := range s.Tuples() {
		out.Insert(t)
	}
	return out, nil
}

// Diff computes r − s.
func Diff(r, s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	out := NewRelation(r.attrs...)
	for _, t := range r.Tuples() {
		if !s.Has(t) {
			out.Insert(t)
		}
	}
	return out, nil
}

// Intersect computes r ∩ s.
func Intersect(r, s *Relation) (*Relation, error) {
	if err := sameSchema(r, s); err != nil {
		return nil, err
	}
	out := NewRelation(r.attrs...)
	for _, t := range r.Tuples() {
		if s.Has(t) {
			out.Insert(t)
		}
	}
	return out, nil
}

func sameSchema(r, s *Relation) error {
	if len(r.attrs) != len(s.attrs) {
		return fmt.Errorf("algres: schema mismatch: %v vs %v", r.attrs, s.attrs)
	}
	for i := range r.attrs {
		if r.attrs[i] != s.attrs[i] {
			return fmt.Errorf("algres: schema mismatch: %v vs %v", r.attrs, s.attrs)
		}
	}
	return nil
}

// Extend appends a computed attribute.
func Extend(r *Relation, attr string, f func(value.Tuple) value.Value) *Relation {
	attrs := append(append([]string{}, r.attrs...), attr)
	out := NewRelation(attrs...)
	for _, t := range r.Tuples() {
		out.Insert(t.With(attr, f(t)))
	}
	return out
}

// Nest groups tuples by the non-nested attributes and collects the nested
// attributes' sub-tuples into a set-valued attribute `as` (the ν operator
// of NF² algebra).
func Nest(r *Relation, nested []string, as string) (*Relation, error) {
	isNested := map[string]bool{}
	for _, a := range nested {
		if !r.HasAttr(a) {
			return nil, fmt.Errorf("algres: nest: unknown attribute %q", a)
		}
		isNested[a] = true
	}
	var keep []string
	for _, a := range r.attrs {
		if !isNested[a] {
			keep = append(keep, a)
		}
	}
	groups := map[string][]value.Value{}
	reps := map[string]value.Tuple{}
	for _, t := range r.Tuples() {
		kf := make([]value.Field, len(keep))
		for i, a := range keep {
			v, _ := t.Get(a)
			kf[i] = value.Field{Label: a, Value: v}
		}
		keyTuple := value.NewTuple(kf...)
		k := keyTuple.Key()
		reps[k] = keyTuple
		nf := make([]value.Field, len(nested))
		for i, a := range nested {
			v, _ := t.Get(a)
			nf[i] = value.Field{Label: a, Value: v}
		}
		var elem value.Value
		if len(nested) == 1 {
			elem = nf[0].Value
		} else {
			elem = value.NewTuple(nf...)
		}
		groups[k] = append(groups[k], elem)
	}
	out := NewRelation(append(append([]string{}, keep...), as)...)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Insert(reps[k].With(as, value.NewSet(groups[k]...)))
	}
	return out, nil
}

// Unnest flattens a set/multiset/sequence-valued attribute: one output
// tuple per element (the μ operator). Single-attribute elements take the
// name `as`; tuple elements contribute their own components.
func Unnest(r *Relation, attr, as string) (*Relation, error) {
	if !r.HasAttr(attr) {
		return nil, fmt.Errorf("algres: unnest: unknown attribute %q", attr)
	}
	var keep []string
	for _, a := range r.attrs {
		if a != attr {
			keep = append(keep, a)
		}
	}
	out := NewRelation(append(append([]string{}, keep...), as)...)
	for _, t := range r.Tuples() {
		cv, _ := t.Get(attr)
		var elems []value.Value
		switch x := cv.(type) {
		case value.Set:
			elems = x.Elems()
		case value.Multiset:
			elems = x.Elems()
		case value.Sequence:
			elems = x.Elems()
		default:
			return nil, fmt.Errorf("algres: unnest: attribute %q holds %s, not a collection", attr, cv.Kind())
		}
		base := make([]value.Field, len(keep))
		for i, a := range keep {
			v, _ := t.Get(a)
			base[i] = value.Field{Label: a, Value: v}
		}
		for _, el := range elems {
			out.Insert(value.NewTuple(append(append([]value.Field{}, base...), value.Field{Label: as, Value: el})...))
		}
	}
	return out, nil
}

// AggKind enumerates the grouping aggregates.
type AggKind int

// Aggregates.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
)

// GroupAggregate groups by the given attributes and computes one aggregate
// over another attribute into `as`.
func GroupAggregate(r *Relation, groupBy []string, agg AggKind, over, as string) (*Relation, error) {
	for _, a := range append(append([]string{}, groupBy...), over) {
		if !r.HasAttr(a) {
			return nil, fmt.Errorf("algres: group: unknown attribute %q", a)
		}
	}
	type acc struct {
		rep    value.Tuple
		count  int64
		sum    float64
		allInt bool
		isum   int64
		min    value.Value
		max    value.Value
	}
	groups := map[string]*acc{}
	for _, t := range r.Tuples() {
		kf := make([]value.Field, len(groupBy))
		for i, a := range groupBy {
			v, _ := t.Get(a)
			kf[i] = value.Field{Label: a, Value: v}
		}
		keyTuple := value.NewTuple(kf...)
		k := keyTuple.Key()
		g := groups[k]
		if g == nil {
			g = &acc{rep: keyTuple, allInt: true}
			groups[k] = g
		}
		v, _ := t.Get(over)
		g.count++
		if i, ok := v.(value.Int); ok {
			g.isum += int64(i)
			g.sum += float64(i)
		} else if f, ok := v.(value.Real); ok {
			g.allInt = false
			g.sum += float64(f)
		}
		if g.min == nil || value.Compare(v, g.min) < 0 {
			g.min = v
		}
		if g.max == nil || value.Compare(v, g.max) > 0 {
			g.max = v
		}
	}
	out := NewRelation(append(append([]string{}, groupBy...), as)...)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		var v value.Value
		switch agg {
		case AggCount:
			v = value.Int(g.count)
		case AggSum:
			if g.allInt {
				v = value.Int(g.isum)
			} else {
				v = value.Real(g.sum)
			}
		case AggMin:
			v = g.min
		case AggMax:
			v = g.max
		}
		out.Insert(g.rep.With(as, v))
	}
	return out, nil
}
