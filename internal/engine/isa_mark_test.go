package engine

import (
	"fmt"
	"strings"
	"testing"

	"logres/internal/colset"
	"logres/internal/hooks"
	"logres/internal/parser"
	"logres/internal/types"
	"logres/internal/value"
)

const isaMarkSchema = `
domains NAME = string;
classes
  PERSON = (name: NAME);
  STUDENT = (PERSON, year: integer);
  STUDENT isa PERSON;
associations
  INTAKE = (name: NAME);
  HIDE = (name: NAME);
  TAG = (p: PERSON);
`

// compileOn compiles rules against the schema s itself, so every program
// of a test names the schema its fact sets are marked closed under.
func compileOn(t *testing.T, s *types.Schema, rulesSrc string, opts Options) *Program {
	t.Helper()
	rules, err := parser.ParseProgram(rulesSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s, rules, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// isaFirings sums the last run's firings of p's isa steps.
func isaFirings(p *Program) int {
	n := 0
	for _, r := range p.rules {
		if r.isa != nil {
			n += p.stats.Firings[r.id]
		}
	}
	return n
}

// runIsaLegs runs p over f0 with the isa passes a mark on f0 allows and
// with full ones (hooks.IsaFullPass), and fails unless both legs derive
// the same facts, advance the oid counter alike, leave the same mark and
// fail alike. It returns the first leg's result, isa firings and error.
func runIsaLegs(t *testing.T, p *Program, f0 *FactSet) (*FactSet, int, error) {
	t.Helper()
	counter := int64(0)
	got, err := p.Run(f0, &counter)
	firings := isaFirings(p)
	hooks.IsaFullPass = true
	fullCounter := int64(0)
	want, fullErr := p.Run(f0, &fullCounter)
	hooks.IsaFullPass = false
	if fmt.Sprint(err) != fmt.Sprint(fullErr) {
		t.Fatalf("error %v, with full isa passes %v", err, fullErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("an aborted run returned a result")
		}
		return nil, firings, err
	}
	if !got.Equal(want) || counter != fullCounter {
		t.Fatalf("the isa passes diverge from full ones:\ngot:  %s\nwant: %s", dump(got), dump(want))
	}
	if got.closed != want.closed {
		t.Fatalf("mark %p, with full isa passes %p", got.closed, want.closed)
	}
	return got, firings, nil
}

// markedStudents returns a fact set of n students s0, s1, … (and their
// person objects) that a run marked closed under s.
func markedStudents(t *testing.T, s *types.Schema, n int) *FactSet {
	t.Helper()
	var src strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "intake(name: \"s%d\").\n", i)
	}
	src.WriteString("student(self: S, name: N, year: 1) <- intake(name: N).\n")
	f, _, err := runIsaLegs(t, compileOn(t, s, src.String(), DefaultOptions()), NewFactSet())
	if err != nil {
		t.Fatal(err)
	}
	if f.closed != s || f.Size("person") != n {
		t.Fatalf("mark %p (want %p), %d persons", f.closed, s, f.Size("person"))
	}
	f.Freeze()
	return f
}

// An isa step over a marked input visits only the sub objects whose sub
// or super fact differs from the input, once per round of its stratum;
// over an unmarked input, or one marked under another schema, it visits
// every sub object.
func TestIsaVisitsOnlyChanged(t *testing.T) {
	s := schemaOf(t, isaMarkSchema)
	const n = 10
	f0 := markedStudents(t, s, n)
	cases := []struct {
		name  string
		input func() *FactSet
		rules string
		other bool // compile against an equal schema of another identity
		want  int
	}{
		{"marked, no class written", func() *FactSet { return f0 },
			`hide(name: "x").`, false, 0},
		// year is not inherited: PERSON agrees, so the step's stratum
		// takes one round.
		{"marked, two students' own component changed", func() *FactSet { return f0 },
			`student(self: S, year: 2) <- student(self: S, name: "s1").
			 student(self: S, year: 2) <- student(self: S, name: "s7").`, false, 2},
		// name is inherited: the step emits in its stratum's first round,
		// which is the stratum's fixpoint (settlesInOneStep): no second
		// round confirms it.
		{"marked, one student's inherited component changed", func() *FactSet { return f0 },
			`student(self: S, name: "z") <- student(self: S, name: "s3").`, false, 1},
		{"marked, a student added", func() *FactSet { return f0 },
			`student(self: S, name: "new", year: 1) <- intake(name: "s0").`, false, 1},
		{"unmarked", func() *FactSet {
			f := f0.Clone()
			f.Add(Fact{Pred: "hide", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("y")})})
			return f
		}, `hide(name: "x").`, false, n},
		{"marked under another schema", func() *FactSet { return f0 },
			`hide(name: "x").`, true, n},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			schema := s
			if c.other {
				schema = schemaOf(t, isaMarkSchema)
			}
			p := compileOn(t, schema, c.rules, DefaultOptions())
			f, firings, err := runIsaLegs(t, p, c.input())
			if err != nil {
				t.Fatal(err)
			}
			if firings != c.want {
				t.Fatalf("isa firings %d, want %d", firings, c.want)
			}
			if f.closed != schema {
				t.Fatalf("result mark %p, want %p", f.closed, schema)
			}
		})
	}
}

// The mark names the schema a set is closed under until the set
// changes: Clone, Freeze, Thaw and writes that change nothing keep it,
// and every write that changes the set clears it.
func TestIsaMarkClearedByEveryChange(t *testing.T) {
	s := schemaOf(t, isaMarkSchema)
	f0 := markedStudents(t, s, 3)
	hide := func(v string) Fact {
		return Fact{Pred: "hide", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str(v)})}
	}
	person := f0.Facts("person")[0]
	keeps := map[string]func(f *FactSet){
		"clone":           func(*FactSet) {},
		"freeze and thaw": func(f *FactSet) { f.Freeze(); f.Thaw() },
		"add present":     func(f *FactSet) { f.Add(person) },
		"remove absent":   func(f *FactSet) { f.Remove(hide("x")) },
		"minus absent":    func(f *FactSet) { *f = *f.Minus(NewFactSet()) },
	}
	clears := map[string]func(f *FactSet){
		"add":          func(f *FactSet) { f.Add(hide("x")) },
		"remove":       func(f *FactSet) { f.Remove(person) },
		"minus person": func(f *FactSet) { d := NewFactSet(); d.Add(person); *f = *f.Minus(d) },
		"merge":        func(f *FactSet) { d := NewFactSet(); d.Add(hide("x")); f.Merge(d) },
		"set coded": func(f *FactSet) {
			b := colset.NewBatch(1)
			b.AppendRow([]uint32{0})
			f.setCoded("hide", &codedPred{dict: colset.NewDict(), labels: []string{"name"}, batch: b})
		},
	}
	for name, op := range keeps {
		f := f0.Clone()
		op(f)
		if f.closed != s {
			t.Fatalf("%s cleared the mark", name)
		}
	}
	for name, op := range clears {
		f := f0.Clone()
		op(f)
		if f.closed != nil {
			t.Fatalf("%s kept the mark", name)
		}
	}
	if f0.closed != s {
		t.Fatal("a write to a clone cleared the original's mark")
	}
}

// Runs that cannot vouch for every isa step mark nothing: one that
// starts above stratum 0, and one under the non-inflationary operator,
// which re-emits and so visits every object.
func TestIsaMarkOnlyFromFullInflationaryRuns(t *testing.T) {
	s := schemaOf(t, isaMarkSchema)
	unmarked := markedStudents(t, s, 4).Clone()
	unmarked.Add(Fact{Pred: "intake", Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("u")})})
	p := compileOn(t, s, `hide(name: N) <- person(name: N).`, DefaultOptions())
	counter := int64(0)
	for from := 1; from < len(p.strata); from++ {
		f, err := p.RunFrom(nil, from, unmarked, &counter)
		if err != nil {
			t.Fatal(err)
		}
		if f.closed != nil {
			t.Fatalf("a run from stratum %d marked its result", from)
		}
	}
	opts := DefaultOptions()
	opts.NonInflationary = true
	p = compileOn(t, s, `hide(name: N) <- person(name: N).`, opts)
	f, firings, err := runIsaLegs(t, p, unmarked)
	if err != nil {
		t.Fatal(err)
	}
	if f.closed != nil || firings == 0 || firings%4 != 0 {
		t.Fatalf("non-inflationary run: mark %p, %d isa firings (want a multiple of 4)", f.closed, firings)
	}
}

// Adversarial inputs for the Δ-local step, each held to the full pass.
func TestIsaPassMatchesFullPass(t *testing.T) {
	s := schemaOf(t, isaMarkSchema)
	f0 := markedStudents(t, s, 5)

	// A deletion head on PERSON in the isa steps' own stratum that hits
	// the object the same round's step overwrites: s1 renamed c loses
	// the PERSON fact named s1, which the step replaces by one named c.
	t.Run("deletion cancelled in one round", func(t *testing.T) {
		p := compileOn(t, s, `hide(name: "s1").
			student(self: S, name: "c") <- student(self: S, name: "s1").
			not person(self: P, name: "s1") <- student(self: P, name: "c"), hide(name: "s1").`, DefaultOptions())
		f, _, err := runIsaLegs(t, p, f0)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.FactsByComponent("person", "name", value.Str("c"))) != 1 || f.closed != s {
			t.Fatalf("person c missing or result unmarked: %s", dump(f))
		}
	})

	// A PERSON object changed while its STUDENT is not: the step must
	// visit the STUDENT to restore it. The rename is allowed once, so the
	// (unstratified) program converges.
	t.Run("super object changed alone", func(t *testing.T) {
		p := compileOn(t, s, `person(self: P, name: "z") <- student(self: P, name: "s4"), not hide(name: "done").
			hide(name: "done") <- person(name: "z").`, DefaultOptions())
		f, firings, err := runIsaLegs(t, p, f0)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.FactsByComponent("person", "name", value.Str("z"))) != 0 || firings == 0 {
			t.Fatalf("person z kept, or no isa visit (%d): %s", firings, dump(f))
		}
	})

	// The deletion that undoes what the step re-adds, round after round:
	// both legs abort at the round bound, with no result to mark.
	t.Run("deletion oscillating", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Budget.MaxRounds = 50
		p := compileOn(t, s, `hide(name: "s2").
			not person(self: X) <- student(self: X, name: N), hide(name: N).`, opts)
		if _, _, err := runIsaLegs(t, p, f0); err == nil || !strings.Contains(err.Error(), "no fixpoint") {
			t.Fatalf("err %v, want the round bound", err)
		}
	})

	// Deleting only PERSON objects (an RDDV's E0 − EM) unmarks the set,
	// so the next run's full pass restores them.
	t.Run("super objects deleted", func(t *testing.T) {
		em := NewFactSet()
		for _, f := range f0.Facts("person")[:2] {
			em.Add(f)
		}
		f1 := f0.Minus(em)
		p := compileOn(t, s, `hide(name: "x").`, DefaultOptions())
		f, firings, err := runIsaLegs(t, p, f1)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size("person") != 5 || firings != 5 {
			t.Fatalf("%d persons after %d isa firings, want 5 after 5", f.Size("person"), firings)
		}
	})

	// A nil-oid STUDENT's invention is suppressed by any agreeing PERSON,
	// so its step reads every PERSON: when the one it agreed with is
	// renamed, the full pass invents a PERSON for it, and so must the
	// marked run. The renaming rule reaches only the tagged object.
	t.Run("nil-oid sub object", func(t *testing.T) {
		e := NewFactSet()
		e.Add(Fact{Pred: "student", IsClass: true, Tuple: value.NewTuple(
			value.Field{Label: "name", Value: value.Str("k")}, value.Field{Label: "year", Value: value.Int(1)})})
		e.Add(Fact{Pred: "person", IsClass: true, OID: 5, Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("k")})})
		e.Add(Fact{Pred: "tag", Tuple: value.NewTuple(value.Field{Label: "p", Value: value.Ref(5)})})
		marked, _, err := runIsaLegs(t, compileOn(t, s, "", DefaultOptions()), e)
		if err != nil {
			t.Fatal(err)
		}
		if marked.closed != s || marked.Size("person") != 1 {
			t.Fatalf("mark %p, %d persons", marked.closed, marked.Size("person"))
		}
		p := compileOn(t, s, `person(self: P, name: "m") <- person(self: P, name: "k"), tag(p: P).`, DefaultOptions())
		f, _, err := runIsaLegs(t, p, marked)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.FactsByComponent("person", "name", value.Str("k"))) != 1 {
			t.Fatalf("no person k invented for the nil-oid student: %s", dump(f))
		}
	})

	// New D objects in the diamond reach A through both paths, one level
	// per stratum, over steps that visit only them.
	t.Run("diamond", func(t *testing.T) {
		ds := schemaOf(t, isaDiamondSchema)
		p := compileOn(t, ds, `d(self: X, v: "p", w: "q", u: "r", x: "s") <- d(self: Y, v: "seed").`, DefaultOptions())
		seed := compileOn(t, ds, `d(v: "seed", w: "1", u: "2", x: "3").`, DefaultOptions())
		marked, _, err := runIsaLegs(t, seed, NewFactSet())
		if err != nil {
			t.Fatal(err)
		}
		f, firings, err := runIsaLegs(t, p, marked)
		if err != nil {
			t.Fatal(err)
		}
		// d → b and d → c visit the new object in the one round of their
		// strata, and b → a and c → a, two steps into one super class, in
		// each of the two rounds of theirs.
		if f.Size("a") != 2 || firings != 6 {
			t.Fatalf("%d a objects after %d isa firings, want 2 after 6: %s", f.Size("a"), firings, dump(f))
		}
	})
}
