package storage

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

// Error-path tests for the codec: unknown tags, truncation mid-structure,
// oversized strings, unencodable values, library round trips.

func TestDecodeUnknownValueTag(t *testing.T) {
	r := &reader{r: bufio.NewReader(bytes.NewReader([]byte{0xFF}))}
	if _, err := r.value(); err == nil {
		t.Fatal("unknown value tag accepted")
	}
}

func TestDecodeUnknownTypeTag(t *testing.T) {
	r := &reader{r: bufio.NewReader(bytes.NewReader([]byte{0xFF}))}
	if _, err := r.typ(); err == nil {
		t.Fatal("unknown type tag accepted")
	}
}

func TestDecodeOversizedString(t *testing.T) {
	var buf bytes.Buffer
	w := &writer{w: &buf}
	w.uvarint(1 << 40) // absurd length prefix
	r := &reader{r: bufio.NewReader(&buf)}
	if _, err := r.str(); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("oversized string accepted: %v", err)
	}
}

func TestTruncatedComposite(t *testing.T) {
	var buf bytes.Buffer
	w := &writer{w: &buf}
	w.value(value.NewTuple(
		value.Field{Label: "a", Value: value.NewSet(value.Int(1), value.Int(2))},
	))
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := &reader{r: bufio.NewReader(bytes.NewReader(full[:cut]))}
		if _, err := r.value(); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

func TestSnapshotWithLibraryAndSemantics(t *testing.T) {
	s := types.NewSchema()
	if err := s.AddAssociation("r", types.Tuple{Fields: []types.Field{{Label: "k", Type: types.Int}}}); err != nil {
		t.Fatal(err)
	}
	st := module.NewState(s)
	lib := st.Lib
	m := mustParseModule(t, `
module probe.
mode radv.
semantics noninflationary.
rules
  r(k: 1).
end.
`)
	if err := lib.Register(m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pm, ok := got.Lib.Get("probe")
	if !ok {
		t.Fatal("library module lost")
	}
	if !pm.NonInflationary || pm.Mode.String() != "RADV" {
		t.Fatalf("module metadata corrupted: %+v", pm)
	}
}

func TestSnapshotNilLibrary(t *testing.T) {
	s := types.NewSchema()
	st := module.NewState(s)
	st.Lib = nil // legacy states may have no library
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lib == nil {
		t.Fatal("loader must always provide a library")
	}
}

func TestWriterErrorSticky(t *testing.T) {
	var buf bytes.Buffer
	w := &writer{w: &buf}
	w.value(struct{ value.Value }{}) // unencodable wrapper type
	if w.err == nil {
		t.Fatal("unencodable value accepted")
	}
	// Subsequent writes keep the error.
	w.str("x")
	w.byte(1)
	if w.err == nil {
		t.Fatal("error not sticky")
	}
}

func mustParseModule(t *testing.T, src string) *ast.Module {
	t.Helper()
	m, err := parser.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
