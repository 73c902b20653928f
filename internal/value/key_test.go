package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refKey is the reference canonical encoder: the original string-building
// implementation of Key, kept here so that the append-based encoder can be
// checked against it byte for byte.
func refKey(v Value) string {
	switch x := v.(type) {
	case Int:
		return string(tagInt) + refOrderedInt64(int64(x))
	case Real:
		return string(tagReal) + refOrderedFloat64(float64(x))
	case Str:
		return string(tagString) + string(x)
	case Bool:
		if x {
			return string(tagBool) + "1"
		}
		return string(tagBool) + "0"
	case Ref:
		return string(tagOID) + refOrderedInt64(int64(x))
	case Null:
		return string(tagNull)
	case Tuple:
		parts := make([]string, 0, 2*len(x.fields))
		for _, f := range x.fields {
			parts = append(parts, f.Label, refKey(f.Value))
		}
		return refCompositeKey(tagTuple, parts)
	case Set:
		return refElemsKey(tagSet, x.elems)
	case Multiset:
		return refElemsKey(tagMultiset, x.elems)
	case Sequence:
		return refElemsKey(tagSequence, x.elems)
	}
	panic("refKey: unknown value type")
}

func refOrderedInt64(x int64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(x)^(1<<63))
	return string(buf[:])
}

func refOrderedFloat64(f float64) string {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], bits)
	return string(buf[:])
}

func refCompositeKey(tag byte, parts []string) string {
	var b strings.Builder
	b.WriteByte(tag)
	b.WriteString(strconv.Itoa(len(parts)))
	for _, p := range parts {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(len(p)))
		b.WriteByte(':')
		b.WriteString(p)
	}
	return b.String()
}

func refElemsKey(tag byte, elems []Value) string {
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = refKey(e)
	}
	return refCompositeKey(tag, parts)
}

// Edge cases every generator draws from alongside random values.
var (
	edgeInts    = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 1 << 40}
	edgeReals   = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -2.5, 1e300, math.SmallestNonzeroFloat64}
	edgeStrings = []string{"", "|", ":", "a|1:b", "3:|x", "\x00", "ünï", strings.Repeat("z", 200)}
	edgeLabels  = []string{"", "a", "arg", "member", "x|y", "n:1", "|2:ab"}
)

// genValue draws a random value; depth bounds the composite nesting.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(10)
	if depth <= 0 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		if r.Intn(3) == 0 {
			return Int(edgeInts[r.Intn(len(edgeInts))])
		}
		return Int(r.Int63n(2001) - 1000)
	case 1:
		if r.Intn(3) == 0 {
			return Real(edgeReals[r.Intn(len(edgeReals))])
		}
		return Real(r.NormFloat64())
	case 2:
		if r.Intn(3) == 0 {
			return Str(edgeStrings[r.Intn(len(edgeStrings))])
		}
		return Str(strconv.Itoa(r.Intn(50)))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		return Ref(r.Int63n(20))
	case 5:
		return Null{}
	case 6:
		fs := make([]Field, r.Intn(4))
		for i := range fs {
			fs[i] = Field{Label: edgeLabels[r.Intn(len(edgeLabels))], Value: genValue(r, depth-1)}
		}
		return NewTuple(fs...)
	}
	es := make([]Value, r.Intn(4))
	for i := range es {
		es[i] = genValue(r, depth-1)
	}
	switch k {
	case 7:
		return NewSet(es...)
	case 8:
		return NewMultiset(es...)
	}
	return NewSequence(es...)
}

// checkKey fails unless every encoder agrees with the reference on v.
func checkKey(t *testing.T, v Value) string {
	t.Helper()
	want := refKey(v)
	if got := v.Key(); got != want {
		t.Fatalf("%v.Key() = %q, want %q", v, got, want)
	}
	prefix := []byte("pre")
	if got := AppendKey(prefix, v); string(got) != "pre"+want {
		t.Fatalf("AppendKey(%v) = %q, want %q", v, got[3:], want)
	}
	if tu, ok := v.(Tuple); ok {
		if got := tu.AppendKey(nil); string(got) != want {
			t.Fatalf("Tuple.AppendKey(%v) = %q, want %q", v, got, want)
		}
	}
	return want
}

// checkPair fails unless Equal agrees with the reference keys of a and b.
func checkPair(t *testing.T, a, b Value, ka, kb string) {
	t.Helper()
	if got, want := Equal(a, b), ka == kb; got != want {
		t.Fatalf("Equal(%v, %v) = %v, want %v", a, b, got, want)
	}
}

// TestAppendKeyMatchesReference checks Key, AppendKey and Equal against
// the reference encoder over 200 000 seeded random values,
// nested composites and edge cases included. Each value is also paired
// with its predecessor and with an independently built copy of itself.
func TestAppendKeyMatchesReference(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	r := rand.New(rand.NewSource(1))
	var prev Value = Null{}
	prevKey := refKey(prev)
	for i := 0; i < n; i++ {
		seed := r.Int63()
		v := genValue(rand.New(rand.NewSource(seed)), 3)
		k := checkKey(t, v)
		checkPair(t, v, prev, k, prevKey)
		checkPair(t, v, genValue(rand.New(rand.NewSource(seed)), 3), k, k)
		prev, prevKey = v, k
	}
}

// TestSetMembershipMatchesReference checks Contains and Count, which
// search by key order, against a scan of reference keys.
func TestSetMembershipMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		es := make([]Value, r.Intn(8))
		for j := range es {
			es[j] = genValue(r, 2)
		}
		s, m := NewSet(es...), NewMultiset(es...)
		probe := genValue(r, 2)
		if len(es) > 0 && r.Intn(2) == 0 {
			probe = es[r.Intn(len(es))]
		}
		want := 0
		for _, e := range es {
			if refKey(e) == refKey(probe) {
				want++
			}
		}
		if got := s.Contains(probe); got != (want > 0) {
			t.Fatalf("%v.Contains(%v) = %v, want %v", s, probe, got, want > 0)
		}
		if got := m.Count(probe); got != want {
			t.Fatalf("%v.Count(%v) = %d, want %d", m, probe, got, want)
		}
	}
}

// fuzzReader decodes a value from fuzz input; an exhausted input reads as
// zeros.
type fuzzReader struct{ data []byte }

func (f *fuzzReader) byte() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *fuzzReader) uint64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = f.byte()
	}
	return binary.BigEndian.Uint64(buf[:])
}

func (f *fuzzReader) str() string {
	n := int(f.byte() % 8)
	if n > len(f.data) {
		n = len(f.data)
	}
	s := string(f.data[:n])
	f.data = f.data[n:]
	return s
}

func (f *fuzzReader) value(depth int) Value {
	k := f.byte() % 10
	if depth <= 0 {
		k %= 6
	}
	switch k {
	case 0:
		return Int(int64(f.uint64()))
	case 1:
		return Real(math.Float64frombits(f.uint64()))
	case 2:
		return Str(f.str())
	case 3:
		return Bool(f.byte()&1 == 1)
	case 4:
		return Ref(int64(f.uint64()))
	case 5:
		return Null{}
	case 6:
		fs := make([]Field, f.byte()%4)
		for i := range fs {
			fs[i] = Field{Label: f.str(), Value: f.value(depth - 1)}
		}
		return NewTuple(fs...)
	}
	es := make([]Value, f.byte()%4)
	for i := range es {
		es[i] = f.value(depth - 1)
	}
	switch k {
	case 7:
		return NewSet(es...)
	case 8:
		return NewMultiset(es...)
	}
	return NewSequence(es...)
}

// FuzzValueKey decodes two values from the input and checks every encoder
// against the reference, and Equal against the reference keys.
func FuzzValueKey(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1})
	f.Add([]byte{6, 2, 1, '|', 7, 2, 0, 0, 2, 1, ':'})
	f.Add([]byte{1, 0x80, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 3, 8, 2, 2, 2, 2, 2, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		a, b := r.value(3), r.value(3)
		ka, kb := checkKey(t, a), checkKey(t, b)
		checkPair(t, a, b, ka, kb)
		checkPair(t, a, a, ka, ka)
	})
}

// TestEqualElementaryAllocatesNothing pins value.Equal on elementary
// values and Set.Contains on a flat set at zero allocations, and Key on an
// integer at one.
func TestEqualElementaryAllocatesNothing(t *testing.T) {
	pairs := [][2]Value{
		{Int(1 << 40), Int(1 << 40)}, {Real(2.5), Real(-2.5)}, {Str("abc"), Str("abc")},
		{Bool(true), Bool(false)}, {Ref(1 << 33), Ref(1 << 33)}, {Null{}, Null{}}, {Int(1), Str("1")},
	}
	for _, p := range pairs {
		if n := testing.AllocsPerRun(100, func() { Equal(p[0], p[1]) }); n != 0 {
			t.Errorf("Equal(%v, %v): %v allocations, want 0", p[0], p[1], n)
		}
	}
	v := Value(Int(1 << 40))
	var k string
	if n := testing.AllocsPerRun(100, func() { k = v.Key() }); n != 1 || k != refKey(v) {
		t.Errorf("Int.Key: %v allocations, want 1", n)
	}
	buf := make([]byte, 0, 64)
	var tu Value = NewTuple(Field{"a", Int(1 << 40)}, Field{"b", Str("x")})
	if n := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], tu) }); n != 0 {
		t.Errorf("AppendKey on a flat tuple: %v allocations, want 0", n)
	}
	if !bytes.Equal(buf, []byte(refKey(tu))) {
		t.Fatalf("AppendKey(%v) = %q", tu, buf)
	}
	s := NewSet(Int(1), Int(5), Str("a"), Str("z"))
	for _, probe := range []Value{Int(5), Int(3), Str("z"), Null{}} {
		if n := testing.AllocsPerRun(100, func() { s.Contains(probe) }); n != 0 {
			t.Errorf("Set.Contains(%v): %v allocations, want 0", probe, n)
		}
	}
}

// Tuples with the same labels in the same order: their keys compare as
// their values' field parts (AppendFieldKey) do, field by field.
func TestFieldKeysOrderTupleKeys(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	labels := []string{"a", "bb", "a2"}
	tuple := func() Tuple {
		fs := make([]Field, len(labels))
		for i, l := range labels {
			fs[i] = Field{Label: l, Value: genValue(r, 1)}
			if r.Intn(3) == 0 {
				fs[i].Value = Str(strings.Repeat("x", r.Intn(12)))
			}
		}
		return NewTuple(fs...)
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 5000; i++ {
		x, y := tuple(), tuple()
		if i%7 == 0 {
			y = x.With("bb", genValue(r, 1))
		}
		want := 0
		for j := range labels {
			if want = bytes.Compare(AppendFieldKey(nil, x.Field(j).Value), AppendFieldKey(nil, y.Field(j).Value)); want != 0 {
				break
			}
		}
		if got := sign(strings.Compare(x.Key(), y.Key())); got != want {
			t.Fatalf("%v vs %v: keys compare %d, field parts %d", x, y, got, want)
		}
	}
}
