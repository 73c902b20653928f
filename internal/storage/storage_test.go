package storage

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

func roundTripValue(t *testing.T, v value.Value) value.Value {
	t.Helper()
	var buf bytes.Buffer
	w := &writer{w: bufio.NewWriter(&buf)}
	w.value(v)
	if w.err != nil {
		t.Fatal(w.err)
	}
	if err := w.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := &reader{r: bufio.NewReader(&buf)}
	got, err := r.value()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Int(-42),
		value.Real(3.5),
		value.Real(math.Inf(-1)),
		value.Str("héllo\nworld"),
		value.Bool(true),
		value.Ref(17),
		value.Null{},
		value.NewTuple(value.Field{Label: "a", Value: value.Int(1)}, value.Field{Label: "b", Value: value.Str("x")}),
		value.NewSet(value.Int(3), value.Int(1)),
		value.NewMultiset(value.Int(1), value.Int(1)),
		value.NewSequence(value.Str("a"), value.Str("b")),
		value.NewTuple(value.Field{Label: "nested", Value: value.NewSet(
			value.NewSequence(value.Int(1), value.Int(2)),
		)}),
	}
	for _, v := range vals {
		got := roundTripValue(t, v)
		if !value.Equal(v, got) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(xs []int64, ss []string) bool {
		var elems []value.Value
		for _, x := range xs {
			elems = append(elems, value.Int(x))
		}
		for _, s := range ss {
			elems = append(elems, value.Str(s))
		}
		v := value.NewTuple(
			value.Field{Label: "set", Value: value.NewSet(elems...)},
			value.Field{Label: "seq", Value: value.NewSequence(elems...)},
		)
		var buf bytes.Buffer
		w := &writer{w: bufio.NewWriter(&buf)}
		w.value(v)
		if w.err != nil || w.w.Flush() != nil {
			return false
		}
		r := &reader{r: bufio.NewReader(&buf)}
		got, err := r.value()
		return err == nil && value.Equal(v, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTypeRoundTrip(t *testing.T) {
	tys := []types.Type{
		types.Int, types.Real, types.String, types.Bool,
		types.Named{Name: "person"},
		types.Tuple{Fields: []types.Field{{Label: "a", Type: types.Int}, {Label: "b", Type: types.Set{Elem: types.String}}}},
		types.Multiset{Elem: types.Int},
		types.Sequence{Elem: types.Named{Name: "player"}},
	}
	for _, ty := range tys {
		var buf bytes.Buffer
		w := &writer{w: bufio.NewWriter(&buf)}
		w.typ(ty)
		if w.err != nil {
			t.Fatal(w.err)
		}
		if err := w.w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := &reader{r: bufio.NewReader(&buf)}
		got, err := r.typ()
		if err != nil {
			t.Fatal(err)
		}
		if !types.EqualType(ty, got) {
			t.Errorf("type round trip %v -> %v", ty, got)
		}
	}
}

func buildState(t testing.TB) *module.State {
	t.Helper()
	m, err := parser.ParseModule(`
domains NAME = string;
classes PERSON = (name: NAME);
associations PARENT = (par: PERSON, chil: PERSON);
functions DESC: PERSON -> {PERSON};
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Schema.Validate(); err != nil {
		t.Fatal(err)
	}
	st := module.NewState(m.Schema)
	st.Counter = 7
	st.E.Add(engine.Fact{Pred: "person", IsClass: true, OID: 3,
		Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("ann")})})
	st.E.Add(engine.Fact{Pred: "parent", Tuple: value.NewTuple(
		value.Field{Label: "par", Value: value.Ref(3)},
		value.Field{Label: "chil", Value: value.Ref(3)},
	)})
	rules, err := parser.ParseProgram(`member(X, desc(Y)) <- parent(par: Y, chil: X).`)
	if err != nil {
		t.Fatal(err)
	}
	st.R = rules
	return st
}

func TestStateRoundTrip(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter != 7 {
		t.Fatalf("counter = %d", got.Counter)
	}
	if !got.E.Equal(st.E) {
		t.Fatal("facts differ after round trip")
	}
	if len(got.R) != 1 || got.R[0].String() != st.R[0].String() {
		t.Fatalf("rules differ: %v", got.R)
	}
	if !got.S.IsClass("person") || !got.S.IsFunction("desc") {
		t.Fatal("schema lost declarations")
	}
	if err := got.S.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStateRoundTripWithIsa(t *testing.T) {
	m, err := parser.ParseModule(`
classes
  PERSON = (name: string);
  STUDENT = (PERSON, school: string);
  STUDENT isa PERSON;
`)
	if err != nil {
		t.Fatal(err)
	}
	st := module.NewState(m.Schema)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.S.IsaEdges()) != 1 {
		t.Fatalf("isa edges = %v", got.S.IsaEdges())
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadState(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Bad version.
	var buf bytes.Buffer
	w := &writer{w: bufio.NewWriter(&buf)}
	w.str(magic)
	w.byte(99)
	_ = w.w.Flush()
	if _, err := LoadState(&buf); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version accepted: %v", err)
	}
	// Truncated.
	st := buildState(t)
	var full bytes.Buffer
	if err := SaveState(&full, st); err != nil {
		t.Fatal(err)
	}
	half := full.Bytes()[:full.Len()/2]
	if _, err := LoadState(bytes.NewReader(half)); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotUsableAfterLoad(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded state evaluates: desc facts derive from parent.
	f, _, err := got.Instance(engine.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("desc") != 1 {
		t.Fatalf("desc = %d", f.Size("desc"))
	}
	_ = ast.RIDI
}
