// Package value implements the LOGRES value model: elementary values
// (integers, reals, strings, booleans), object identifiers (oids), and the
// generalized constructors of the paper — tuples, sets, multisets and
// sequences — together with canonical encoding, ordering and deep equality.
//
// Values are immutable once constructed. Sets and multisets keep their
// elements in canonical (sorted-by-key) order so that structural equality,
// hashing and deterministic iteration are cheap.
package value

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OID is an object identifier. Oids are managed by the system and never
// visible to users (§2.1 of the paper). The zero OID is the distinguished
// nil oid, a legal value for class references inside classes but not inside
// associations.
type OID int64

// NilOID is the nil object identifier.
const NilOID OID = 0

// IsNil reports whether o is the nil oid.
func (o OID) IsNil() bool { return o == NilOID }

func (o OID) String() string {
	if o == NilOID {
		return "nil"
	}
	return "&" + strconv.FormatInt(int64(o), 10)
}

// Kind identifies the dynamic kind of a Value.
type Kind int

// The kinds of LOGRES values.
const (
	KindInt Kind = iota
	KindReal
	KindString
	KindBool
	KindOID
	KindTuple
	KindSet
	KindMultiset
	KindSequence
	KindNull
)

var kindNames = [...]string{
	KindInt:      "integer",
	KindReal:     "real",
	KindString:   "string",
	KindBool:     "boolean",
	KindOID:      "oid",
	KindTuple:    "tuple",
	KindSet:      "set",
	KindMultiset: "multiset",
	KindSequence: "sequence",
	KindNull:     "null",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Value is a LOGRES runtime value.
type Value interface {
	// Kind reports the dynamic kind of the value.
	Kind() Kind
	// Key returns a canonical encoding of the value. Two values are equal
	// iff their keys are equal; keys of values of the same kind sort in
	// value order.
	Key() string
	// String renders the value in LOGRES surface syntax.
	String() string
}

// Int is an integer value.
type Int int64

// Real is a floating-point value.
type Real float64

// Str is a string value.
type Str string

// Bool is a boolean value.
type Bool bool

// Ref is an object reference (an oid used as a value).
type Ref OID

// Null is the null value, used for unset optional components.
type Null struct{}

// Field is one labelled component of a tuple.
type Field struct {
	Label string
	Value Value
}

// Tuple is a labelled record. Field order is significant and follows the
// schema's type equation.
type Tuple struct {
	fields []Field
}

// Set is a duplicate-free collection in canonical order.
type Set struct {
	elems []Value // sorted by Key, no duplicates
}

// Multiset is a collection with duplicates, kept in canonical order.
type Multiset struct {
	elems []Value // sorted by Key, duplicates adjacent
}

// Sequence is an ordered collection.
type Sequence struct {
	elems []Value
}

// Kind implementations.

func (Int) Kind() Kind      { return KindInt }
func (Real) Kind() Kind     { return KindReal }
func (Str) Kind() Kind      { return KindString }
func (Bool) Kind() Kind     { return KindBool }
func (Ref) Kind() Kind      { return KindOID }
func (Null) Kind() Kind     { return KindNull }
func (Tuple) Kind() Kind    { return KindTuple }
func (Set) Kind() Kind      { return KindSet }
func (Multiset) Kind() Kind { return KindMultiset }
func (Sequence) Kind() Kind { return KindSequence }

// String implementations.

func (v Int) String() string  { return strconv.FormatInt(int64(v), 10) }
func (v Real) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
func (v Str) String() string  { return strconv.Quote(string(v)) }
func (v Bool) String() string { return strconv.FormatBool(bool(v)) }
func (v Ref) String() string  { return OID(v).String() }
func (Null) String() string   { return "null" }

func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range t.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		if f.Label != "" {
			b.WriteString(f.Label)
			b.WriteString(": ")
		}
		b.WriteString(f.Value.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (s Set) String() string      { return bracketed('{', '}', s.elems) }
func (m Multiset) String() string { return bracketed('[', ']', m.elems) }
func (q Sequence) String() string { return bracketed('<', '>', q.elems) }

func bracketed(open, close byte, elems []Value) string {
	var b strings.Builder
	b.WriteByte(open)
	for i, e := range elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte(close)
	return b.String()
}

// Constructors.

// NewTuple builds a tuple from the given fields. The field slice is copied.
func NewTuple(fields ...Field) Tuple {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return Tuple{fields: fs}
}

// NewSet builds a set, deduplicating and canonically ordering elems.
func NewSet(elems ...Value) Set {
	es := canonicalize(elems, true)
	return Set{elems: es}
}

// NewMultiset builds a multiset, canonically ordering elems.
func NewMultiset(elems ...Value) Multiset {
	es := canonicalize(elems, false)
	return Multiset{elems: es}
}

// NewSequence builds a sequence preserving order.
func NewSequence(elems ...Value) Sequence {
	es := make([]Value, len(elems))
	copy(es, elems)
	return Sequence{elems: es}
}

func canonicalize(elems []Value, dedup bool) []Value {
	keyed := make([]keyedValue, len(elems))
	for i, e := range elems {
		keyed[i] = keyedValue{e.Key(), e}
	}
	sort.SliceStable(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	es := make([]Value, 0, len(keyed))
	for i, kv := range keyed {
		if !dedup || i == 0 || kv.key != keyed[i-1].key {
			es = append(es, kv.v)
		}
	}
	return es
}

// keyedValue pairs a value with its key, computed once for a sort.
type keyedValue struct {
	key string
	v   Value
}

// Tuple accessors.

// Len reports the number of fields.
func (t Tuple) Len() int { return len(t.fields) }

// Field returns the i-th field.
func (t Tuple) Field(i int) Field { return t.fields[i] }

// Fields returns a copy of the field slice.
func (t Tuple) Fields() []Field {
	fs := make([]Field, len(t.fields))
	copy(fs, t.fields)
	return fs
}

// Get returns the value of the field with the given label.
func (t Tuple) Get(label string) (Value, bool) {
	for _, f := range t.fields {
		if f.Label == label {
			return f.Value, true
		}
	}
	return nil, false
}

// With returns a copy of t with the labelled field replaced (or appended if
// absent).
func (t Tuple) With(label string, v Value) Tuple {
	fs := t.Fields()
	for i := range fs {
		if fs[i].Label == label {
			fs[i].Value = v
			return Tuple{fields: fs}
		}
	}
	fs = append(fs, Field{Label: label, Value: v})
	return Tuple{fields: fs}
}

// Collection accessors.

// Len reports the number of elements.
func (s Set) Len() int { return len(s.elems) }

// Elems returns the canonical element slice (not to be mutated).
func (s Set) Elems() []Value { return s.elems }

// Contains reports whether v is a member of the set. It binary-searches
// by key order: v's key is appended once, each probe's into a second
// buffer.
func (s Set) Contains(v Value) bool {
	var kv, ke [KeyBufSize]byte
	k := AppendKey(kv[:0], v)
	i := sort.Search(len(s.elems), func(i int) bool { return bytes.Compare(AppendKey(ke[:0], s.elems[i]), k) >= 0 })
	return i < len(s.elems) && Equal(s.elems[i], v)
}

// Add returns s ∪ {v}.
func (s Set) Add(v Value) Set {
	if s.Contains(v) {
		return s
	}
	return NewSet(append(append([]Value{}, s.elems...), v)...)
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	return NewSet(append(append([]Value{}, s.elems...), o.elems...)...)
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	var out []Value
	for _, e := range s.elems {
		if o.Contains(e) {
			out = append(out, e)
		}
	}
	return NewSet(out...)
}

// Diff returns s − o.
func (s Set) Diff(o Set) Set {
	var out []Value
	for _, e := range s.elems {
		if !o.Contains(e) {
			out = append(out, e)
		}
	}
	return NewSet(out...)
}

// Len reports the number of elements (counting duplicates).
func (m Multiset) Len() int { return len(m.elems) }

// Elems returns the canonical element slice (not to be mutated).
func (m Multiset) Elems() []Value { return m.elems }

// Count reports the multiplicity of v.
func (m Multiset) Count(v Value) int {
	n := 0
	for _, e := range m.elems {
		if Equal(e, v) {
			n++
		}
	}
	return n
}

// Add returns m ⊎ {v}.
func (m Multiset) Add(v Value) Multiset {
	return NewMultiset(append(append([]Value{}, m.elems...), v)...)
}

// Len reports the number of elements.
func (q Sequence) Len() int { return len(q.elems) }

// Elems returns the element slice (not to be mutated).
func (q Sequence) Elems() []Value { return q.elems }

// At returns the i-th element.
func (q Sequence) At(i int) Value { return q.elems[i] }

// Append returns q with v appended.
func (q Sequence) Append(v Value) Sequence {
	return Sequence{elems: append(append([]Value{}, q.elems...), v)}
}

// Equal reports deep structural equality of two values: whether their keys
// are equal. Elementary values compare directly (reals by bit pattern, as
// their keys do, so −0 ≠ 0 and a NaN equals itself); composites compare
// their keys, appended into stack buffers.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Real:
		y, ok := b.(Real)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case Int, Str, Bool, Ref, Null:
		return a == b
	}
	if a.Kind() != b.Kind() {
		return false
	}
	var ka, kb [KeyBufSize]byte
	return bytes.Equal(AppendKey(ka[:0], a), AppendKey(kb[:0], b))
}

// Compare orders two values. Values of different kinds order by kind; within
// a kind, elementary values order naturally and composites lexicographically.
func Compare(a, b Value) int {
	if a.Kind() != b.Kind() {
		// Numeric cross-kind comparison: integers and reals compare by value.
		if isNumeric(a) && isNumeric(b) {
			return compareFloat(AsFloat(a), AsFloat(b))
		}
		return int(a.Kind()) - int(b.Kind())
	}
	switch x := a.(type) {
	case Int:
		y := b.(Int)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case Real:
		return compareFloat(float64(x), float64(b.(Real)))
	case Str:
		return strings.Compare(string(x), string(b.(Str)))
	case Bool:
		y := b.(Bool)
		switch {
		case !bool(x) && bool(y):
			return -1
		case bool(x) && !bool(y):
			return 1
		}
		return 0
	case Ref:
		y := b.(Ref)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	default:
		return strings.Compare(a.Key(), b.Key())
	}
}

func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func isNumeric(v Value) bool {
	k := v.Kind()
	return k == KindInt || k == KindReal
}

// AsFloat converts a numeric value to float64. It panics on non-numeric
// values; callers must check kinds first.
func AsFloat(v Value) float64 {
	switch x := v.(type) {
	case Int:
		return float64(x)
	case Real:
		return float64(x)
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.Kind()))
}

// IsNaN reports whether v is a floating NaN (never produced by the engine,
// but guarded against in ordering code).
func IsNaN(v Value) bool {
	r, ok := v.(Real)
	return ok && math.IsNaN(float64(r))
}
