// Package instance implements LOGRES database instances: the triple
// (ρ, π, ν) of Appendix A — the association assignment, the oid assignment
// and the o-value assignment — together with the legality conditions of
// Definition 4 (isa containment, hierarchy disjointness, typing of
// o-values, and referential constraints between classes).
package instance

import (
	"fmt"
	"sort"
	"strings"

	"logres/internal/types"
	"logres/internal/value"
)

// Instance is one database instance over a schema.
type Instance struct {
	schema *types.Schema

	classes map[string]map[value.OID]bool     // π: class name → set of oids
	ovalues map[value.OID]value.Tuple         // ν: oid → o-value
	assocs  map[string]map[string]value.Tuple // ρ: assoc name → key → tuple
}

// New returns an empty instance over the given schema.
func New(schema *types.Schema) *Instance {
	return &Instance{
		schema:  schema,
		classes: map[string]map[value.OID]bool{},
		ovalues: map[value.OID]value.Tuple{},
		assocs:  map[string]map[string]value.Tuple{},
	}
}

// AddToClass records oid ∈ π(class) and merges the o-value. The o-value of
// an object is shared by every class of its hierarchy; components present
// in v overwrite equally-labelled components of the stored o-value (the ⊕
// composition of Appendix B).
func (in *Instance) AddToClass(class string, oid value.OID, v value.Tuple) {
	class = types.Canon(class)
	set := in.classes[class]
	if set == nil {
		set = map[value.OID]bool{}
		in.classes[class] = set
	}
	set[oid] = true
	prev, ok := in.ovalues[oid]
	if !ok {
		in.ovalues[oid] = v
		return
	}
	merged := prev
	for _, f := range v.Fields() {
		merged = merged.With(f.Label, f.Value)
	}
	in.ovalues[oid] = merged
}

// Objects returns the oids of π(class) in ascending order.
func (in *Instance) Objects(class string) []value.OID {
	set := in.classes[types.Canon(class)]
	out := make([]value.OID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InsertTuple adds a tuple to ρ(assoc); duplicates are absorbed (an
// association is a set of tuples).
func (in *Instance) InsertTuple(assoc string, t value.Tuple) {
	assoc = types.Canon(assoc)
	m := in.assocs[assoc]
	if m == nil {
		m = map[string]value.Tuple{}
		in.assocs[assoc] = m
	}
	m[t.Key()] = t
}

// Tuples returns ρ(assoc) in canonical (key) order.
func (in *Instance) Tuples(assoc string) []value.Tuple {
	m := in.assocs[types.Canon(assoc)]
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Tuple, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// String renders the instance deterministically, for tests and the CLI.
func (in *Instance) String() string {
	var b strings.Builder
	var classNames []string
	for c := range in.classes {
		if len(in.classes[c]) > 0 {
			classNames = append(classNames, c)
		}
	}
	sort.Strings(classNames)
	for _, c := range classNames {
		fmt.Fprintf(&b, "%s:\n", c)
		for _, o := range in.Objects(c) {
			v := in.ovalues[o]
			eff, err := in.schema.EffectiveTuple(c)
			if err == nil {
				v = Project(v, eff)
			}
			fmt.Fprintf(&b, "  %s %s\n", o, v)
		}
	}
	var assocNames []string
	for a := range in.assocs {
		if len(in.assocs[a]) > 0 {
			assocNames = append(assocNames, a)
		}
	}
	sort.Strings(assocNames)
	for _, a := range assocNames {
		fmt.Fprintf(&b, "%s:\n", a)
		for _, t := range in.Tuples(a) {
			fmt.Fprintf(&b, "  %s\n", t)
		}
	}
	return b.String()
}

// Project restricts an o-value to the components of an effective tuple
// type, in type order (the Π operator of Definition 4). Components missing
// from the o-value are projected to null.
func Project(v value.Tuple, eff types.Tuple) value.Tuple {
	fields := make([]value.Field, len(eff.Fields))
	for i, f := range eff.Fields {
		fv, ok := v.Get(f.Label)
		if !ok {
			fv = value.Null{}
		}
		fields[i] = value.Field{Label: f.Label, Value: fv}
	}
	return value.NewTuple(fields...)
}
