package module

import (
	"strings"
	"testing"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/value"
)

const footprintSchema = `
classes
  person = (name: string);
  emp = (person, sal: integer);
  emp isa person;
associations
  works = (who: person, dept: string);
  orders = (id: integer);
  audit = (id: integer);
`

func has(s []string, p string) bool {
	for _, x := range s {
		if x == p {
			return true
		}
	}
	return false
}

func staticFP(t *testing.T, st *State, src string, mode ast.Mode) *engineFP {
	t.Helper()
	m := parseModule(t, src)
	fp, err := StaticFootprint(st, m, mode, opts())
	if err != nil {
		t.Fatal(err)
	}
	return &engineFP{fp.Reads, fp.Writes, fp.Universal}
}

type engineFP struct {
	Reads, Writes []string
	Universal     bool
}

func TestStaticFootprintDataVariant(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode ridv.
rules
  audit(id: X) <- orders(id: X).
end.
`, ast.RIDV)
	if !has(fp.Reads, "orders") {
		t.Fatalf("body predicate not read: %+v", fp)
	}
	if !has(fp.Writes, "audit") {
		t.Fatalf("head predicate not written: %+v", fp)
	}
	if has(fp.Writes, "orders") {
		t.Fatalf("read-only predicate written: %+v", fp)
	}
	if !has(fp.Reads, PredSchema) || !has(fp.Reads, PredRules) {
		t.Fatalf("pseudo-predicate reads missing: %+v", fp)
	}
	if has(fp.Writes, PredRules) {
		t.Fatalf("RIDV must not write $rules$: %+v", fp)
	}
	if fp.Universal {
		t.Fatalf("positive program marked universal: %+v", fp)
	}
}

func TestStaticFootprintIsaClosureWidensWrites(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode ridv.
rules
  emp(name: "ann", sal: 1).
end.
`, ast.RIDV)
	// Writing the subclass writes the superclass through the generated
	// isa-propagation rule.
	if !has(fp.Writes, "emp") || !has(fp.Writes, "person") {
		t.Fatalf("isa closure missing: %+v", fp)
	}
}

func TestStaticFootprintReferentialReads(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode ridv.
rules
  works(who: X, dept: "dev") <- person(self: X).
end.
`, ast.RIDV)
	// A writer of works references class person: integrity couples it to
	// deleters of person.
	if !has(fp.Reads, "person") {
		t.Fatalf("referenced class not read: %+v", fp)
	}
}

func TestStaticFootprintDeleterReadsReferencingPreds(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode rddv.
rules
  person(name: "bob").
end.
`, ast.RDDV)
	// Deleting person facts can invalidate references held in works.
	if !has(fp.Reads, "works") {
		t.Fatalf("referencing predicate not read by deleter: %+v", fp)
	}
}

func TestStaticFootprintRuleChangeWritesRules(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode radv.
rules
  audit(id: X) <- orders(id: X).
end.
`, ast.RADV)
	if !has(fp.Writes, PredRules) {
		t.Fatalf("RADV must write $rules$: %+v", fp)
	}
}

func TestStaticFootprintNonInflationaryIsUniversal(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode ridv.
semantics noninflationary.
rules
  audit(id: X) <- orders(id: X).
end.
`, ast.RIDV)
	if !fp.Universal {
		t.Fatalf("non-inflationary module must read universally: %+v", fp)
	}
}

func TestStaticFootprintInventiveTouchesOID(t *testing.T) {
	st := newState(t, footprintSchema)
	fp := staticFP(t, st, `
mode ridv.
rules
  person(name: X) <- orders(id: Y), X = "p".
end.
`, ast.RIDV)
	if !has(fp.Writes, PredOID) || !has(fp.Reads, PredOID) {
		t.Fatalf("inventive module must read+write $oid$: %+v", fp)
	}
}

func TestApplySnapshotDeltaMatchesApply(t *testing.T) {
	st := newState(t, footprintSchema)
	st = seed(t, st, `orders(id: 1). orders(id: 2).`)
	st.E.Freeze()

	m := parseModule(t, `
mode ridv.
rules
  audit(id: X) <- orders(id: X).
  orders(id: 3).
end.
`)
	sr, err := ApplySnapshot(st, m, ast.RIDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Replace || sr.ReadOnly {
		t.Fatalf("plain RIDV should delta-commit: %+v", sr)
	}
	// Delta: audit(1), audit(2), audit(3), orders(3).
	if len(sr.Adds) != 4 || len(sr.Removes) != 0 {
		t.Fatalf("adds=%d removes=%d", len(sr.Adds), len(sr.Removes))
	}
	// Replaying the delta on the snapshot reproduces Apply's result.
	replay := CommitDelta(st, sr)
	if !replay.E.Equal(sr.Res.State.E) {
		t.Fatal("CommitDelta does not reproduce the applied state")
	}
	if replay.Counter != sr.Res.State.Counter {
		t.Fatalf("counter: %d vs %d", replay.Counter, sr.Res.State.Counter)
	}
	// The snapshot itself is untouched.
	if st.E.Size("orders") != 2 || st.E.Size("audit") != 0 {
		t.Fatal("snapshot mutated")
	}
}

func TestApplySnapshotRDDVRemoves(t *testing.T) {
	st := newState(t, footprintSchema)
	st = seed(t, st, `orders(id: 1). orders(id: 2). audit(id: 1).`)
	st.E.Freeze()

	m := parseModule(t, `
mode rddv.
rules
  orders(id: 1).
end.
`)
	sr, err := ApplySnapshot(st, m, ast.RDDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if sr.Replace {
		t.Fatalf("rule-free RDDV should delta-commit: %+v", sr)
	}
	if len(sr.Removes) != 1 || sr.Removes[0].Pred != "orders" {
		t.Fatalf("removes = %+v", sr.Removes)
	}
	replay := CommitDelta(st, sr)
	if !replay.E.Equal(sr.Res.State.E) {
		t.Fatal("CommitDelta does not reproduce the deletion")
	}
}

func TestApplySnapshotSchemaChangeReplaces(t *testing.T) {
	st := newState(t, footprintSchema)
	st.E.Freeze()
	m := parseModule(t, `
mode ridv.
associations
  extra = (n: integer);
rules
  extra(n: 1).
end.
`)
	sr, err := ApplySnapshot(st, m, ast.RIDV, opts())
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Replace {
		t.Fatal("schema-changing module must replace the whole state")
	}
	if !has(sr.Footprint.Writes, PredSchema) {
		t.Fatalf("schema write missing: %+v", sr.Footprint)
	}
}

func TestApplySnapshotRIDIReadOnly(t *testing.T) {
	st := newState(t, footprintSchema)
	st = seed(t, st, `orders(id: 7).`)
	st.E.Freeze()
	m := parseModule(t, `
goal
  ?- orders(id: X).
end.
`)
	sr, err := ApplySnapshot(st, m, ast.RIDI, opts())
	if err != nil {
		t.Fatal(err)
	}
	if !sr.ReadOnly {
		t.Fatal("RIDI must be read-only")
	}
	if sr.Res.Answer == nil || len(sr.Res.Answer.Rows) != 1 {
		t.Fatalf("answer = %+v", sr.Res.Answer)
	}
	if len(sr.Footprint.Writes) != 0 {
		t.Fatalf("read-only footprint has writes: %+v", sr.Footprint)
	}
}

func TestFootprintsOfDisjointModulesAreDisjoint(t *testing.T) {
	st := newState(t, footprintSchema)
	a := staticFP(t, st, `
mode ridv.
rules
  orders(id: 1).
end.
`, ast.RIDV)
	b := staticFP(t, st, `
mode ridv.
rules
  audit(id: 1).
end.
`, ast.RIDV)
	fpA := guard.Footprint{Reads: a.Reads, Writes: a.Writes, Universal: a.Universal}
	fpB := guard.Footprint{Reads: b.Reads, Writes: b.Writes, Universal: b.Universal}
	if p, hit := fpA.Overlaps(fpB); hit {
		t.Fatalf("disjoint modules conflict on %q\nA: %s\nB: %s", p, fpA, fpB)
	}
	if p, hit := fpB.Overlaps(fpA); hit {
		t.Fatalf("disjoint modules conflict on %q (reverse)", p)
	}
}

func TestEngineFootprintChaining(t *testing.T) {
	st := newState(t, footprintSchema)
	// b <- a, c <- b: writing a chains into b and c.
	m := parseModule(t, `
mode ridv.
rules
  orders(id: 1).
  audit(id: X) <- orders(id: X).
end.
`)
	prog, err := engine.Compile(st.S, m.Rules, opts())
	if err != nil {
		t.Fatal(err)
	}
	rf := prog.Footprint()
	if !has(rf.Writes, "orders") || !has(rf.Writes, "audit") {
		t.Fatalf("chained writes missing: %+v", rf)
	}
	if rf.Universal || rf.Inventive {
		t.Fatalf("flags wrong: %+v", rf)
	}
	if strings.Join(rf.Deletes, ",") != "" {
		t.Fatalf("deletes = %v", rf.Deletes)
	}
}

// A missed write need not change a predicate's size: a deletion head can
// remove one fact while another rule adds one. diffFacts must still find
// the swap in a predicate outside the static writes, and report the miss.
func TestDiffFactsSeesSizeNeutralMiss(t *testing.T) {
	order := func(id int64) engine.Fact {
		return engine.Fact{Pred: "orders", Tuple: value.NewTuple(value.Field{Label: "id", Value: value.Int(id)})}
	}
	audit := engine.Fact{Pred: "audit", Tuple: value.NewTuple(value.Field{Label: "id", Value: value.Int(9)})}
	e0 := engine.NewFactSet()
	for id := int64(1); id <= 5; id++ {
		e0.Add(order(id))
	}
	e0.Freeze()
	e1 := e0.Clone()
	e1.Add(audit)       // the static write
	e1.Remove(order(2)) // the missed one, size-neutral
	e1.Add(order(7))
	d := diffFacts(e0, e1, []string{"audit"})
	if !d.missed {
		t.Fatal("a size-neutral change to an unwritten predicate went unreported")
	}
	if !d.changed["orders"] || !d.changed["audit"] || len(d.changed) != 2 {
		t.Fatalf("changed = %v, want audit and orders", d.changed)
	}
	keys := func(fs []engine.Fact) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.Key())
		}
		return out
	}
	if got, want := keys(d.adds), []string{audit.Key(), order(7).Key()}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("adds = %v, want %v", got, want)
	}
	if got, want := keys(d.removes), []string{order(2).Key()}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("removes = %v, want %v", got, want)
	}
	if d := diffFacts(e0, e1, []string{"audit", "orders"}); d.missed {
		t.Fatal("a change inside the static writes was reported as missed")
	}
}
