package engine

import (
	"strings"
	"testing"
)

// Tests of the non-inflationary semantics (§1: rules are parametric in
// their semantics).

func noninfOpts() Options {
	o := DefaultOptions()
	o.NonInflationary = true
	return o
}

func TestNoninfAgreesOnPositivePrograms(t *testing.T) {
	// On positive programs both semantics compute the least model.
	schemaSrc := parentSchema
	rulesSrc := `
anc(anc: X, des: Y) <- parent(par: X, chil: Y).
anc(anc: X, des: Z) <- anc(anc: X, des: Y), parent(par: Y, chil: Z).
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `
parent(par: "a", chil: "b").
parent(par: "b", chil: "c").
parent(par: "c", chil: "d").
`)
	pInf, err := tryBuild(schemaSrc, rulesSrc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pNon, err := tryBuild(schemaSrc, rulesSrc, noninfOpts())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := int64(0), int64(0)
	fInf, err := pInf.Run(edb, &c1)
	if err != nil {
		t.Fatal(err)
	}
	fNon, err := pNon.Run(edb, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if !fInf.Equal(fNon) {
		t.Fatalf("semantics disagree on a positive program:\ninf: %v\nnon: %v",
			tuples(fInf, "anc"), tuples(fNon, "anc"))
	}
}

func TestNoninfDropsNonRederivableFacts(t *testing.T) {
	// Derived facts persist only while re-derivable: the inflationary
	// instance keeps a fact once derived, the non-inflationary instance
	// drops it when its premise is gone — the interesting case is a fact
	// derivable in early steps only. `once` and `blocker` are both
	// derivable at step 1 from seed; `blocker` then kills the derivation
	// of `once`. once and blocker negate each other, so the program is
	// not stratified and the defaults evaluate it whole under the
	// inflationary semantics: `once` survives there, and under
	// non-inflationary semantics it vanishes at the fixpoint.
	schemaSrc := `
associations
  SEED = (k: integer);
  ONCE = (k: integer);
  BLOCKER = (k: integer);
`
	rulesSrc := `
once(k: X) <- seed(k: X), not blocker(k: X).
blocker(k: X) <- seed(k: X), not once(k: 0).
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `seed(k: 1).`)

	pInf, err := tryBuild(schemaSrc, rulesSrc, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pInf.Stratified() {
		t.Fatal("once and blocker negate each other, yet the program is stratified")
	}
	c1 := int64(0)
	fInf, err := pInf.Run(edb, &c1)
	if err != nil {
		t.Fatal(err)
	}
	if fInf.Size("once") != 1 || fInf.Size("blocker") != 1 {
		t.Fatalf("inflationary once = %d, blocker = %d, want 1, 1 (kept once derived)", fInf.Size("once"), fInf.Size("blocker"))
	}

	pNon, err := tryBuild(schemaSrc, rulesSrc, noninfOpts())
	if err != nil {
		t.Fatal(err)
	}
	c2 := int64(0)
	fNon, err := pNon.Run(edb, &c2)
	if err != nil {
		t.Fatal(err)
	}
	if fNon.Size("once") != 0 {
		t.Fatalf("non-inflationary once = %d, want 0 (no longer derivable)", fNon.Size("once"))
	}
	if fNon.Size("blocker") != 1 {
		t.Fatalf("blocker = %d", fNon.Size("blocker"))
	}
}

func TestNoninfUndefinedOnOscillation(t *testing.T) {
	// flip(X) <- seed(X), not flip(X): classic two-cycle, no fixpoint —
	// the semantics is undefined and reported as an error.
	schemaSrc := `
associations
  SEED = (k: integer);
  FLIP = (k: integer);
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `seed(k: 1).`)
	opts := noninfOpts()
	opts.Budget.MaxRounds = 100
	p, err := tryBuild(schemaSrc, `flip(k: X) <- seed(k: X), not flip(k: X).`, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	if _, err := p.Run(edb, &c); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Fatalf("oscillating program not reported: %v", err)
	}
}

func TestNoninfPreservesEDB(t *testing.T) {
	// The extensional base always persists, even when a deletion rule
	// targets it and its premise disappears: deletions only win while
	// derivable in the step.
	schemaSrc := `
associations
  KEEPREL = (k: integer);
  DERIVED = (k: integer);
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `keeprel(k: 1). keeprel(k: 2).`)
	p, err := tryBuild(schemaSrc, `derived(k: X) <- keeprel(k: X).`, noninfOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(edb, &c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("keeprel") != 2 || f.Size("derived") != 2 {
		t.Fatalf("keeprel=%d derived=%d", f.Size("keeprel"), f.Size("derived"))
	}
}

func TestNoninfInventionStable(t *testing.T) {
	// Invention under the non-inflationary operator re-emits the
	// satisfying object instead of re-inventing, so the object population
	// stabilizes with exactly one object per seed.
	schemaSrc := `
classes ITEM = (k: integer);
associations SEED = (k: integer);
`
	schema := schemaOf(t, schemaSrc)
	edb := seedEDB(t, schema, `seed(k: 1). seed(k: 2).`)
	p, err := tryBuild(schemaSrc, `item(self: X, k: K) <- seed(k: K).`, noninfOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := int64(0)
	f, err := p.Run(edb, &c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size("item") != 2 {
		t.Fatalf("items = %d, want 2", f.Size("item"))
	}
}
