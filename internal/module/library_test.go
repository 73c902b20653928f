package module

import (
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/parser"
	"logres/internal/types"
)

func TestLibraryRegisterCall(t *testing.T) {
	st := newState(t, italianSchema)
	st = seed(t, st, `roman(name: "ugo").`)

	lib := NewLibrary()
	mod := parseModule(t, `
module promote.
mode ridv.
rules
  italian(name: X) <- roman(name: X).
end.
`)
	if err := lib.Register(mod); err != nil {
		t.Fatal(err)
	}
	if got := lib.Names(); len(got) != 1 || got[0] != "promote" {
		t.Fatalf("names = %v", got)
	}
	m, err := lib.Lookup("promote")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Apply(st, m, m.Mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.State.E.Size("italian") != 1 {
		t.Fatalf("italian = %d", res.State.E.Size("italian"))
	}
	if _, err := lib.Lookup("nosuch"); err == nil || !strings.Contains(err.Error(), "promote") {
		t.Fatalf("unknown module call: %v", err)
	}
}

func TestLibraryAnonymousRejected(t *testing.T) {
	lib := NewLibrary()
	if err := lib.Register(&ast.Module{}); err == nil {
		t.Fatal("anonymous module registered")
	}
}

func TestLibraryRedefinitionAndRemove(t *testing.T) {
	lib := NewLibrary()
	m1 := parseModule(t, "module m. mode ridi. end.")
	m2 := parseModule(t, "module m. mode radv. end.")
	if err := lib.Register(m1); err != nil {
		t.Fatal(err)
	}
	if err := lib.Register(m2); err != nil {
		t.Fatal(err)
	}
	if len(lib.Names()) != 1 {
		t.Fatal("redefinition duplicated the name")
	}
	got, _ := lib.Get("m")
	if got.Mode != ast.RADV {
		t.Fatal("redefinition kept the old module")
	}
	if !lib.Remove("m") || lib.Remove("m") {
		t.Fatal("Remove semantics wrong")
	}
}

func TestLibrarySourcesRoundTrip(t *testing.T) {
	lib := NewLibrary()
	src := `
module football_update.
mode radv.
semantics noninflationary.
domains EXTRA = string;
rules
  italian(name: X) <- roman(name: X).
  not roman(name: "x") <- roman(name: "x").
end.
`
	if err := lib.Register(parseModule(t, src)); err != nil {
		t.Fatal(err)
	}
	sources := lib.Sources()
	if len(sources) != 1 {
		t.Fatalf("sources = %d", len(sources))
	}
	lib2 := NewLibrary()
	if err := lib2.LoadSources(sources); err != nil {
		t.Fatalf("%v\nsource:\n%s", err, sources[0])
	}
	m, ok := lib2.Get("football_update")
	if !ok {
		t.Fatal("module lost in round trip")
	}
	if m.Mode != ast.RADV || !m.NonInflationary || len(m.Rules) != 2 {
		t.Fatalf("module corrupted: %+v", m)
	}
	if d, ok := m.Schema.Lookup("extra"); !ok || d.Kind != types.DeclDomain {
		t.Fatal("module schema lost")
	}
}

func TestRenderModuleGoal(t *testing.T) {
	m := parseModule(t, `
module q.
rules
  italian(name: "x").
goal
  ?- italian(name: X), X != "y".
end.
`)
	out := RenderModule(m)
	re, err := parser.ParseModule(out)
	if err != nil {
		t.Fatalf("%v\nrendered:\n%s", err, out)
	}
	if len(re.Goal) != 2 {
		t.Fatalf("goal lost: %v", re.Goal)
	}
}

func TestLibraryCloneIndependence(t *testing.T) {
	lib := NewLibrary()
	_ = lib.Register(parseModule(t, "module a. end."))
	cp := lib.Clone()
	_ = cp.Register(parseModule(t, "module b. end."))
	if len(lib.Names()) != 1 || len(cp.Names()) != 2 {
		t.Fatal("clone shares storage")
	}
}
