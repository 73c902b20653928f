package value

import (
	"encoding/binary"
	"math"
	"strconv"
)

// Canonical keys.
//
// Key returns a string encoding with two properties the engine relies on:
//
//  1. injectivity — two values have the same key iff they are structurally
//     equal;
//  2. order preservation within a kind — for elementary values, the
//     byte-wise order of keys matches value order, so sets (which sort by
//     key) iterate in natural order.
//
// The encoding starts with a one-byte kind tag so different kinds never
// collide, followed by an order-preserving payload. Composite payloads use
// length-prefixed child keys: the part count, then "|<len>:<part>" per part
// (a tuple's parts alternate label and value key).
//
// Keys are appended into one buffer (AppendKey); each Key method appends
// into a stack buffer and converts once. The append path never recurses: an
// elementary child is appended in place, and a composite child's key comes
// from its own Key, called through the interface. A recursive appender would
// make escape analysis move every buffer to the heap.

const (
	tagInt      = 'i'
	tagReal     = 'r'
	tagString   = 's'
	tagBool     = 'b'
	tagOID      = 'o'
	tagNull     = 'n'
	tagTuple    = 't'
	tagSet      = 'S'
	tagMultiset = 'M'
	tagSequence = 'Q'
)

// KeyBufSize is the size of the stack buffer a key is appended into, here
// and in every caller that looks a key up without allocating; a longer key
// spills to the heap.
const KeyBufSize = 128

// orderedInt64 maps an int64 to a uint64 whose big-endian bytes order as
// the integers do (the sign bit flipped).
func orderedInt64(x int64) uint64 { return uint64(x) ^ (1 << 63) }

// orderedFloat64 maps a float64 to a uint64 whose big-endian bytes preserve
// order: positive floats flip the sign bit, negative floats flip all bits.
func orderedFloat64(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// elementaryKeyLen is the length of v's key when v is elementary, else -1.
func elementaryKeyLen(v Value) int {
	switch x := v.(type) {
	case Int, Real, Ref:
		return 9
	case Str:
		return 1 + len(x)
	case Bool:
		return 2
	case Null:
		return 1
	}
	return -1
}

// appendElementary appends v's key when v is elementary; ok is false (and b
// unchanged) otherwise.
func appendElementary(b []byte, v Value) (_ []byte, ok bool) {
	switch x := v.(type) {
	case Int:
		return binary.BigEndian.AppendUint64(append(b, tagInt), orderedInt64(int64(x))), true
	case Real:
		return binary.BigEndian.AppendUint64(append(b, tagReal), orderedFloat64(float64(x))), true
	case Ref:
		return binary.BigEndian.AppendUint64(append(b, tagOID), orderedInt64(int64(x))), true
	case Str:
		return append(append(b, tagString), x...), true
	case Bool:
		if x {
			return append(b, tagBool, '1'), true
		}
		return append(b, tagBool, '0'), true
	case Null:
		return append(b, tagNull), true
	}
	return b, false
}

// AppendKey appends v's canonical key to b and returns the extended buffer.
func AppendKey(b []byte, v Value) []byte {
	if out, ok := appendElementary(b, v); ok {
		return out
	}
	switch x := v.(type) {
	case Tuple:
		return x.AppendKey(b)
	case Set:
		return appendElemsKey(b, tagSet, x.elems)
	case Multiset:
		return appendElemsKey(b, tagMultiset, x.elems)
	case Sequence:
		return appendElemsKey(b, tagSequence, x.elems)
	}
	return append(b, v.Key()...)
}

// AppendKey appends t's canonical key to b and returns the extended buffer.
func (t Tuple) AppendKey(b []byte) []byte {
	b = strconv.AppendInt(append(b, tagTuple), int64(2*len(t.fields)), 10)
	for _, f := range t.fields {
		b = strconv.AppendInt(append(b, '|'), int64(len(f.Label)), 10)
		b = appendChild(append(append(b, ':'), f.Label...), f.Value)
	}
	return b
}

func appendElemsKey(b []byte, tag byte, elems []Value) []byte {
	b = strconv.AppendInt(append(b, tag), int64(len(elems)), 10)
	for _, e := range elems {
		b = appendChild(b, e)
	}
	return b
}

// appendChild appends one length-prefixed part holding v's key.
func appendChild(b []byte, v Value) []byte {
	b = append(b, '|')
	if n := elementaryKeyLen(v); n >= 0 {
		b, _ = appendElementary(append(strconv.AppendInt(b, int64(n), 10), ':'), v)
		return b
	}
	k := v.Key() // through the interface: see the package comment on recursion
	b = append(strconv.AppendInt(b, int64(len(k)), 10), ':')
	return append(b, k...)
}

func fixedKey(tag byte, payload uint64) string {
	var buf [9]byte
	return string(binary.BigEndian.AppendUint64(append(buf[:0], tag), payload))
}

func (v Int) Key() string  { return fixedKey(tagInt, orderedInt64(int64(v))) }
func (v Real) Key() string { return fixedKey(tagReal, orderedFloat64(float64(v))) }
func (v Str) Key() string  { return string(tagString) + string(v) }
func (v Bool) Key() string {
	if v {
		return string(tagBool) + "1"
	}
	return string(tagBool) + "0"
}
func (v Ref) Key() string { return fixedKey(tagOID, orderedInt64(int64(v))) }
func (Null) Key() string  { return string(tagNull) }

func (t Tuple) Key() string {
	var buf [KeyBufSize]byte
	return string(t.AppendKey(buf[:0]))
}

func (s Set) Key() string      { return elemsKey(tagSet, s.elems) }
func (m Multiset) Key() string { return elemsKey(tagMultiset, m.elems) }
func (q Sequence) Key() string { return elemsKey(tagSequence, q.elems) }

func elemsKey(tag byte, elems []Value) string {
	var buf [KeyBufSize]byte
	return string(appendElemsKey(buf[:0], tag, elems))
}
