package engine

import (
	"sort"

	"logres/internal/types"
	"logres/internal/value"
)

// The active domain (§2.1): "the set of elements of that type present in a
// given state of the database". It is the range of the implicit
// quantifiers in rules, used when variables occur only in negated
// literals.
//
// The domain is indexed by the *declared* type of each position: a
// variable typed NAME enumerates the NAME-typed component values present
// anywhere in the current fact set; a variable typed by a class enumerates
// that class's current oids; an association tuple variable enumerates the
// association's current tuples (key "$tuple$<assoc>").

type activeDomain struct {
	vals map[string]map[string]value.Value // adKey → value key → value
}

func (ad *activeDomain) add(key string, v value.Value) {
	m := ad.vals[key]
	if m == nil {
		m = map[string]value.Value{}
		ad.vals[key] = m
	}
	m[v.Key()] = v
}

// values returns the domain of a key in deterministic order.
func (ad *activeDomain) values(key string) []value.Value {
	m := ad.vals[key]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Value, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// buildActiveDomain scans a fact set, recording every component value
// under the declared type of its position.
func buildActiveDomain(schema *types.Schema, f *FactSet) *activeDomain {
	ad := &activeDomain{vals: map[string]map[string]value.Value{}}
	for _, pred := range f.Preds() {
		d, ok := schema.Lookup(pred)
		if !ok {
			continue
		}
		switch d.Kind {
		case types.DeclClass:
			eff, err := schema.EffectiveTuple(pred)
			if err != nil {
				continue
			}
			f.Each(pred, func(fact Fact) bool {
				ad.add(pred, value.Ref(fact.OID))
				ad.walkTuple(schema, eff, fact.Tuple)
				return true
			})
		case types.DeclAssociation:
			eff, err := schema.EffectiveTuple(pred)
			if err != nil {
				continue
			}
			f.Each(pred, func(fact Fact) bool {
				ad.add("$tuple$"+pred, fact.Tuple)
				ad.walkTuple(schema, eff, fact.Tuple)
				return true
			})
		case types.DeclFunction:
			f.Each(pred, func(fact Fact) bool {
				if d.Arg != nil {
					if av, ok := fact.Tuple.Get(FuncArgLabel); ok {
						ad.walkTyped(schema, d.Arg, av)
					}
				}
				if mv, ok := fact.Tuple.Get(FuncMemberLabel); ok {
					ad.walkTyped(schema, d.Result, mv)
				}
				return true
			})
		}
	}
	return ad
}

func (ad *activeDomain) walkTuple(schema *types.Schema, eff types.Tuple, t value.Tuple) {
	for _, field := range eff.Fields {
		v, ok := t.Get(field.Label)
		if !ok || v.Kind() == value.KindNull {
			continue
		}
		ad.walkTyped(schema, field.Type, v)
	}
}

// walkTyped records v under its declared type's key and recurses into
// constructed values.
func (ad *activeDomain) walkTyped(schema *types.Schema, t types.Type, v value.Value) {
	if t == nil || v == nil || v.Kind() == value.KindNull {
		return
	}
	ad.add(adKeyOf(t), v)
	switch x := t.(type) {
	case types.Named:
		name := types.Canon(x.Name)
		d, ok := schema.Lookup(name)
		if !ok {
			return
		}
		if d.Kind == types.DeclDomain {
			// Also index under the unfolded structural type, so variables
			// typed by the underlying structure see domain-typed values.
			ad.walkTyped(schema, d.RHS, v)
		}
	case types.Tuple:
		if tv, ok := v.(value.Tuple); ok {
			ad.walkTuple(schema, x, tv)
		}
	case types.Set:
		if sv, ok := v.(value.Set); ok {
			for _, el := range sv.Elems() {
				ad.walkTyped(schema, x.Elem, el)
			}
		}
	case types.Multiset:
		if mv, ok := v.(value.Multiset); ok {
			for _, el := range mv.Elems() {
				ad.walkTyped(schema, x.Elem, el)
			}
		}
	case types.Sequence:
		if qv, ok := v.(value.Sequence); ok {
			for _, el := range qv.Elems() {
				ad.walkTyped(schema, x.Elem, el)
			}
		}
	}
}
