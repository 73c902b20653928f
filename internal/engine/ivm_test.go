package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"logres/internal/parser"
	"logres/internal/value"
)

// Engine-level differential tests of the incremental maintainer: after
// every committed base delta the maintained full set must equal a
// from-scratch evaluation of the same program over the same base, and
// the reported ViewDelta must be exactly the difference between the
// previous and the next full set.

func ivmEdge(a, b int) Fact {
	return Fact{Pred: "edge", Tuple: value.NewTuple(
		value.Field{Label: "src", Value: value.Int(int64(a))},
		value.Field{Label: "dst", Value: value.Int(int64(b))},
	)}
}

func ivmNode(n int) Fact {
	return Fact{Pred: "node", Tuple: value.NewTuple(
		value.Field{Label: "n", Value: value.Int(int64(n))},
	)}
}

// ivmPair is a fact of one of the two-integer predicates the ivmPrograms
// rules derive: tc over src and dst, same over a and b.
func ivmPair(pred string, a, b int) Fact {
	f := ivmEdge(a, b)
	f.Pred = pred
	if pred == "same" {
		f.Tuple = value.NewTuple(
			value.Field{Label: "a", Value: value.Int(int64(a))},
			value.Field{Label: "b", Value: value.Int(int64(b))},
		)
	}
	return f
}

const ivmSchema = `
associations
  NODE = (n: integer);
  EDGE = (src: integer, dst: integer);
  TC = (src: integer, dst: integer);
  SAME = (a: integer, b: integer);
  UNREACH = (a: integer, b: integer);
`

// ivmPrograms pairs a rule set with the maintenance split it must get.
var ivmPrograms = []struct {
	name       string
	rules      string
	wantPrefix int // eligible strata
	wantTotal  int
	// head is a maintained predicate the rules derive, which
	// FuzzMaintainerDelete's commits also write as extensional facts.
	head string
}{
	{
		// One non-recursive stratum, with two rules deriving overlapping
		// facts (facts with more than one derivation). Test names keep
		// its old name.
		name: "counting",
		rules: `
same(a: X, b: Y) <- edge(src: X, dst: Y), edge(src: Y, dst: X).
same(a: X, b: X) <- node(n: X).
`,
		wantPrefix: 1,
		wantTotal:  1,
		head:       "same",
	},
	{
		// Recursive closure: DRed delete/rederive.
		name: "closure",
		rules: `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`,
		wantPrefix: 1,
		wantTotal:  1,
		head:       "tc",
	},
	{
		// A recursive literal whose argument needs an earlier literal's
		// binding: the delta join matches it at its body position rather
		// than first.
		name: "late-bound-delta",
		rules: `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Y) <- tc(src: X, dst: Z), tc(src: Z + 1, dst: Y).
`,
		wantPrefix: 1,
		wantTotal:  1,
		head:       "tc",
	},
	{
		// Comparisons and arithmetic in a recursive stratum and in the
		// non-recursive stratum above it: the filters run after the predicate
		// literals to their left in every join order, and Y != W reads
		// variables no head binds.
		name: "filters-and-arithmetic",
		rules: `
tc(src: X, dst: Y) <- edge(src: X, dst: Y), X != Y.
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: W), Y != W, Z = W, Z < X + 5.
same(a: X, b: Y) <- tc(src: X, dst: Y), Y = X + 1.
same(a: X, b: Y) <- node(n: X), tc(src: Y, dst: X), Y * 2 <= X + 1.
`,
		wantPrefix: 2,
		wantTotal:  2,
		head:       "same",
	},
	{
		// Eligible closure prefix plus a negation stratum, which is
		// ineligible and recomputed as the suffix.
		name: "mixed-fallback",
		rules: `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
unreach(a: X, b: Y) <- node(n: X), node(n: Y), not tc(src: X, dst: Y).
`,
		wantPrefix: 1,
		wantTotal:  2,
		head:       "tc",
	},
}

// randomCommit mutates the master base set and returns the *net* delta
// it applied — disjoint add and remove sets, the shape a commit's
// removes-then-adds replay carries.
func randomCommit(r *rand.Rand, base *FactSet, n int) (adds, removes []Fact) {
	pre := base.Clone()
	steps := r.Intn(4) + 1
	for i := 0; i < steps; i++ {
		f := ivmEdge(r.Intn(n), r.Intn(n))
		switch r.Intn(6) {
		case 0, 1:
			f = ivmNode(r.Intn(n))
		case 2:
			// A fact of a predicate the rules may also derive: present as
			// extensional, derived or both.
			f = ivmPair([]string{"tc", "same"}[r.Intn(2)], r.Intn(n), r.Intn(n))
		}
		// Deletion-heavy: half the steps try to remove.
		if r.Intn(2) == 0 && base.Has(f) {
			base.Remove(f)
		} else {
			base.Add(f)
		}
	}
	return netDelta(pre, base)
}

// netDelta returns the facts of base not in pre and those of pre not in
// base.
func netDelta(pre, base *FactSet) (adds, removes []Fact) {
	for _, p := range base.Preds() {
		for _, f := range base.Facts(p) {
			if !pre.Has(f) {
				adds = append(adds, f)
			}
		}
	}
	for _, p := range pre.Preds() {
		for _, f := range pre.Facts(p) {
			if !base.Has(f) {
				removes = append(removes, f)
			}
		}
	}
	return adds, removes
}

func TestMaintainerDifferential(t *testing.T) {
	for _, tc := range ivmPrograms {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scratchProg, err := tryBuild(ivmSchema, tc.rules, rowOracle())
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{DefaultOptions(), rowOracle()} {
				maintProg, err := tryBuild(ivmSchema, tc.rules, opts)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(0); seed < 6; seed++ {
					r := rand.New(rand.NewSource(seed))
					n := 6
					base := randomEdgeFacts(n, 10, seed)
					for i := 0; i < n; i++ {
						base.Add(ivmNode(i))
					}
					e0 := base.Clone()
					e0.Freeze()
					m, err := NewMaintainer(maintProg, e0, 0)
					if err != nil {
						t.Fatal(err)
					}
					if prefix, total := m.EligibleStrata(); prefix != tc.wantPrefix || total != tc.wantTotal {
						t.Fatalf("eligible strata = %d/%d, want %d/%d", prefix, total, tc.wantPrefix, tc.wantTotal)
					}
					checkRebuilt(t, fmt.Sprintf("vectorize %v seed %d", opts.Vectorize, seed), scratchProg, e0, m)
					for commit := 0; commit < 12; commit++ {
						adds, removes := randomCommit(r, base, n)
						newE := base.Clone()
						newE.Freeze()
						next, vd, err := m.Next(adds, removes, newE, 0)
						if err != nil {
							t.Fatalf("vectorize %v seed %d commit %d: %v", opts.Vectorize, seed, commit, err)
						}
						checkMaintained(t, fmt.Sprintf("vectorize %v seed %d commit %d", opts.Vectorize, seed, commit), scratchProg, base, m, next, vd)
						m = next
					}
				}
			}
		})
	}
}

// checkMaintained fails the test unless next, the successor of prev for
// a commit that left the extensional set base, holds what a from-scratch
// run of the row oracle scratchProg derives over base, and vd is exactly
// the difference from prev's full set.
func checkMaintained(t *testing.T, at string, scratchProg *Program, base *FactSet, prev, next *Maintainer, vd *ViewDelta) {
	t.Helper()
	var c int64
	scratch, err := scratchProg.Run(base, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Full().Equal(scratch) {
		t.Fatalf("%s: incremental full set diverged from scratch", at)
	}
	// ViewDelta exactness: old full + delta == new full.
	replay := prev.Full().Clone()
	for _, f := range vd.Removes {
		if !replay.Remove(f) {
			t.Fatalf("%s: delta removes absent fact %s", at, f)
		}
	}
	for _, f := range vd.Adds {
		if !replay.Add(f) {
			t.Fatalf("%s: delta adds present fact %s", at, f)
		}
	}
	if !replay.Equal(next.Full()) {
		t.Fatalf("%s: ViewDelta does not reproduce the new full set", at)
	}
}

// checkRebuilt fails the test unless m, just built over e0, holds as
// its full set what a read of its own program derives over e0, and as
// its view e0 plus what the row oracle scratchProg derives for the heads
// of the maintained strata, which only those strata's rules write.
func checkRebuilt(t *testing.T, at string, scratchProg *Program, e0 *FactSet, m *Maintainer) {
	t.Helper()
	var c int64
	read, err := m.Program().Run(e0, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Full().Equal(read) {
		t.Fatalf("%s: rebuilt full set differs from the read's evaluation", at)
	}
	c = 0
	scratch, err := scratchProg.Run(e0, &c)
	if err != nil {
		t.Fatal(err)
	}
	view := e0.Clone()
	for _, sp := range m.maintained() {
		for _, pred := range sp.heads {
			scratch.Each(pred, func(f Fact) bool {
				view.Add(f)
				return true
			})
		}
	}
	if !m.view.Clone().Equal(view) {
		t.Fatalf("%s: rebuilt view differs from E plus the maintained strata's derivations", at)
	}
}

// FuzzMaintainerDelete drives small graphs, cyclic ones included, through
// maintained commits that insert and delete, and holds every commit to
// checkMaintained. pick chooses the ivmPrograms rule set. Each byte b of
// ops toggles one fact over x = (b>>3)&7 and y = b&7: edge(x, y) when bit
// 6 is clear; when it is set, node(x) if y is 0 and otherwise the
// program's head fact over (x, y), extensional beside what the rules
// derive. A set bit 7 ends the commit; the first commit is the base the
// maintainer starts from.
func FuzzMaintainerDelete(f *testing.F) {
	const end = 0x80
	edge := func(x, y byte) byte { return x<<3 | y }
	node := func(x byte) byte { return 0x40 | x<<3 }
	head := func(x, y byte) byte { return 0x40 | x<<3 | y }
	// 1→2, 2→4, 4→3, 3→4, then delete 2→4; add 2→4 and 1→4; delete 2→4.
	cyclic := []byte{edge(1, 2), edge(2, 4), edge(4, 3), end | edge(3, 4),
		end | edge(2, 4),
		edge(2, 4), end | edge(1, 4),
		end | edge(2, 4)}
	// Head facts (1,2), (1,3) and (1,1) written beside their derivations:
	// an extensional fact goes while a derivation holds and comes back,
	// then each derivation goes in a commit of its own while the
	// extensional fact holds, then the extensional facts go.
	beside := []byte{edge(1, 2), edge(2, 3), edge(2, 1), node(1), head(1, 3), end | head(1, 2),
		end | head(1, 3),
		end | head(1, 3),
		end | edge(2, 3),
		end | edge(2, 1),
		end | edge(1, 2),
		end | head(1, 1),
		end | node(1),
		head(1, 2), head(1, 3), end | head(1, 1)}
	// A head fact the rules read: tc(1,2), written extensionally, supports
	// tc(1,3) and tc(1,4) through 2→3→4. They go with it, come back with
	// it and 1→2, stay while either holds and go with the last.
	under := []byte{edge(2, 3), edge(3, 4), end | head(1, 2),
		end | head(1, 2),
		head(1, 2), end | edge(1, 2),
		end | edge(1, 2),
		end | head(1, 2)}
	for pick := range ivmPrograms {
		f.Add(uint8(pick), cyclic)
	}
	for seed := int64(0); seed < 4; seed++ {
		ops := make([]byte, 48)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(uint8(seed), ops)
	}
	for pick := range ivmPrograms {
		f.Add(uint8(pick), beside)
		f.Add(uint8(pick), under)
	}
	f.Fuzz(func(t *testing.T, pick uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		program := ivmPrograms[int(pick)%len(ivmPrograms)]
		rules := program.rules
		prog, err := tryBuild(ivmSchema, rules, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		scratchProg, err := tryBuild(ivmSchema, rules, rowOracle())
		if err != nil {
			t.Fatal(err)
		}
		base := NewFactSet()
		var m *Maintainer
		for i, b := range ops {
			x, y := int(b>>3&7), int(b&7)
			fact := ivmEdge(x, y)
			switch {
			case b&0x40 != 0 && y == 0:
				fact = ivmNode(x)
			case b&0x40 != 0:
				fact = ivmPair(program.head, x, y)
			}
			if !base.Remove(fact) {
				base.Add(fact)
			}
			if b&0x80 == 0 && i < len(ops)-1 {
				continue
			}
			newE := base.Clone()
			newE.Freeze()
			if m == nil {
				if m, err = NewMaintainer(prog, newE, 0); err != nil {
					t.Fatal(err)
				}
				checkRebuilt(t, "the first commit", scratchProg, newE, m)
				continue
			}
			adds, removes := netDelta(m.baseE, base)
			next, vd, err := m.Next(adds, removes, newE, 0)
			if err != nil {
				t.Fatalf("commit ending at op %d: %v", i, err)
			}
			checkMaintained(t, fmt.Sprintf("commit ending at op %d", i), scratchProg, base, m, next, vd)
			m = next
		}
	})
}

// TestMaintainerDeleteRederive pins the DRed rederivation case: removing
// one of two parallel support paths must keep the closure fact alive.
func TestMaintainerDeleteRederive(t *testing.T) {
	prog, err := tryBuild(ivmSchema, `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := NewFactSet()
	// Two paths 0→3: via 1 and via 2.
	for _, e := range [][2]int{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		base.Add(ivmEdge(e[0], e[1]))
	}
	e0 := base.Clone()
	e0.Freeze()
	m, err := NewMaintainer(prog, e0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc03 := Fact{Pred: "tc", Tuple: value.NewTuple(
		value.Field{Label: "src", Value: value.Int(0)},
		value.Field{Label: "dst", Value: value.Int(3)},
	)}
	if !m.Full().Has(tc03) {
		t.Fatal("closure fact missing before delete")
	}
	// Remove the 0→1→3 path: tc(0,3) must survive via 0→2→3, and the
	// delta must not report it as removed.
	base.Remove(ivmEdge(0, 1))
	newE := base.Clone()
	newE.Freeze()
	vd, err := m.Update(nil, []Fact{ivmEdge(0, 1)}, newE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Full().Has(tc03) {
		t.Fatal("closure fact lost despite a surviving support path")
	}
	for _, f := range vd.Removes {
		if f.Key() == tc03.Key() {
			t.Fatal("ViewDelta reports the rederived fact as removed")
		}
	}
	// Remove the second path: now it must go.
	base.Remove(ivmEdge(2, 3))
	newE = base.Clone()
	newE.Freeze()
	vd, err = m.Update(nil, []Fact{ivmEdge(2, 3)}, newE, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Full().Has(tc03) {
		t.Fatal("closure fact survived with no support path")
	}
	found := false
	for _, f := range vd.Removes {
		if f.Key() == tc03.Key() {
			found = true
		}
	}
	if !found {
		t.Fatal("ViewDelta misses the genuinely deleted fact")
	}
}

// TestMaintainerCyclicSelfSupport pins DRed's view deltas where 3 and 4
// support each other: deleting 2→4 must delete every closure fact whose
// other support runs round the cycle back through the removed edge, and
// once 1→4 also holds, the same delete keeps tc(1,·) and deletes only
// tc(2,·). The second delete's first-layer check keeps tc(1,4) through
// 1→4, so only tc(2,·) is over-deleted.
func TestMaintainerCyclicSelfSupport(t *testing.T) {
	prog, err := tryBuild(ivmSchema, `
tc(src: X, dst: Y) <- edge(src: X, dst: Y).
tc(src: X, dst: Z) <- tc(src: X, dst: Y), edge(src: Y, dst: Z).
`, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tc := func(a, b int) Fact {
		f := ivmEdge(a, b)
		f.Pred = "tc"
		return f
	}
	base := NewFactSet()
	for _, e := range [][2]int{{1, 2}, {2, 4}, {4, 3}, {3, 4}} {
		base.Add(ivmEdge(e[0], e[1]))
	}
	e0 := base.Clone()
	e0.Freeze()
	m, err := NewMaintainer(prog, e0, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(fs []Fact) []string {
		out := []string{}
		for _, f := range fs {
			out = append(out, f.Key())
		}
		return out
	}
	for i, c := range []struct {
		adds, removes         []Fact
		wantAdds, wantRemoves []Fact
		overdeleted           int
	}{
		{removes: []Fact{ivmEdge(2, 4)},
			wantRemoves: []Fact{ivmEdge(2, 4), tc(1, 3), tc(1, 4), tc(2, 3), tc(2, 4)},
			overdeleted: 4},
		{adds: []Fact{ivmEdge(2, 4), ivmEdge(1, 4)},
			wantAdds: []Fact{ivmEdge(1, 4), ivmEdge(2, 4), tc(1, 3), tc(1, 4), tc(2, 3), tc(2, 4)}},
		{removes: []Fact{ivmEdge(2, 4)},
			wantRemoves: []Fact{ivmEdge(2, 4), tc(2, 3), tc(2, 4)},
			overdeleted: 2},
	} {
		m.overdeleted = 0
		for _, f := range c.removes {
			base.Remove(f)
		}
		for _, f := range c.adds {
			base.Add(f)
		}
		newE := base.Clone()
		newE.Freeze()
		vd, err := m.Update(c.adds, c.removes, newE, 0)
		if err != nil {
			t.Fatal(err)
		}
		SortFactsByKey(c.wantAdds)
		SortFactsByKey(c.wantRemoves)
		if got, want := keys(vd.Adds), keys(c.wantAdds); !reflect.DeepEqual(got, want) {
			t.Fatalf("commit %d adds %q, want %q", i, got, want)
		}
		if got, want := keys(vd.Removes), keys(c.wantRemoves); !reflect.DeepEqual(got, want) {
			t.Fatalf("commit %d removes %q, want %q", i, got, want)
		}
		if m.overdeleted != c.overdeleted {
			t.Fatalf("commit %d over-deleted %d facts, want %d", i, m.overdeleted, c.overdeleted)
		}
	}
}

// TestMaintainerIneligible pins the maintenance classification: which
// construct forces recomputation from which stratum on, the reason the
// plan records for it, and the line Explain prints per stratum.
func TestMaintainerIneligible(t *testing.T) {
	const schema = `
classes
  PERSON = (name: string);
associations
  P = (n: integer);
  Q = (n: integer);
  R = (n: integer);
  S = (n: integer);
  PAIR = (a: integer, b: integer);
  PAIR2 = (a: integer, b: integer);
functions
  F: integer -> {integer};
`
	for _, c := range []struct {
		name    string
		rules   string
		noninf  bool
		prefix  int
		explain []string // maintenance lines, one per stratum
	}{
		{"invention", `person(name: "x") <- p(n: X).`, false, 0,
			[]string{"none (rule #0: oid invention)"}},
		{"deletion head", `not p(n: X) <- p(n: X), X > 3.`, false, 0,
			[]string{"none (rule #0: deletion head)"}},
		{"negated literal", `q(n: X) <- p(n: X), not r(n: X).`, false, 0,
			[]string{"none (rule #0: negation)"}},
		{"data-function read", `q(n: Y) <- p(n: X), member(Y, f(X)).`, false, 0,
			[]string{"none (rule #0: data-function read)"}},
		{"function head", `member(X, f(X)) <- p(n: X).`, false, 0,
			[]string{"none (rule #0: data-function head)"}},
		{"class head", `person(self: X, name: "y") <- person(self: X, name: "x").`, false, 0,
			[]string{"none (rule #0: class head)"}},
		{"head tuple variable", `pair2(T) <- pair(T).`, false, 0,
			[]string{"none (rule #0: head tuple variable)"}},
		{"non-inflationary", `q(n: X) <- p(n: X).`, true, 0,
			[]string{"none (non-inflationary semantics)"}},
		{"eligible after ineligible", `
q(n: X) <- p(n: X), not r(n: X).
s(n: X) <- q(n: X).
`, false, 0, []string{"none (rule #0: negation)", "none (after stratum 0)"}},
		{"non-recursive then recursive", `
q(n: X) <- p(n: X), X > 0.
s(n: X) <- q(n: X).
s(n: Y) <- s(n: X), p(n: Y), Y = X + 1.
`, false, 2, []string{"DRed", "DRed"}},
	} {
		opts := DefaultOptions()
		opts.NonInflationary = c.noninf
		prog, err := tryBuild(schema, c.rules, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		e := NewFactSet()
		e.Add(Fact{Pred: "p", Tuple: value.NewTuple(value.Field{Label: "n", Value: value.Int(1)})})
		e.Freeze()
		m, err := NewMaintainer(prog, e, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if prefix, total := m.EligibleStrata(); prefix != c.prefix || total != len(c.explain) {
			t.Fatalf("%s: eligible strata = %d of %d, want %d of %d", c.name, prefix, total, c.prefix, len(c.explain))
		}
		var lines []string
		for _, line := range strings.Split(prog.Explain(), "\n") {
			if m, ok := strings.CutPrefix(line, "  maintenance: "); ok {
				lines = append(lines, m)
			}
		}
		if !reflect.DeepEqual(lines, c.explain) {
			t.Fatalf("%s: Explain maintenance lines = %q, want %q", c.name, lines, c.explain)
		}
		// The degenerate maintainer must still track the full set.
		var counter int64
		scratch, err := prog.Run(e, &counter)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Full().Equal(scratch) {
			t.Fatalf("%s: cached full set diverged from scratch", c.name)
		}
	}
}

// TestRebuildHonoursBudget pins that a maintainer rebuild runs under
// its program's budget, the maintained strata included: it aborts on
// the axis and limit a read of the same program aborts on.
func TestRebuildHonoursBudget(t *testing.T) {
	opts := DefaultOptions()
	opts.Budget = Budget{MaxFacts: 6}
	prog, err := tryBuild(ivmSchema, ivmPrograms[1].rules, opts) // closure
	if err != nil {
		t.Fatal(err)
	}
	e := NewFactSet()
	for i := 0; i < 6; i++ {
		e.Add(ivmEdge(i, i+1))
	}
	e.Freeze()
	var c int64
	_, readErr := prog.Run(e, &c)
	var want *BudgetError
	if !errors.As(readErr, &want) || want.Axis != AxisFacts {
		t.Fatalf("read: err = %v, want a facts budget abort", readErr)
	}
	m, err := NewMaintainer(prog, e, 0)
	var got *BudgetError
	if !errors.As(err, &got) || got.Axis != want.Axis || got.Limit != want.Limit {
		t.Fatalf("rebuild: maintainer %v, err = %v, want %v", m != nil, err, readErr)
	}
}

// maintState is what a maintainer holds, read out: the fact keys of its
// full set and view.
type maintState struct {
	full, view []string
}

func readMaintState(m *Maintainer) maintState {
	keys := func(f *FactSet) []string {
		var out []string
		// Read through a clone, which leaves the receiver as it is.
		for _, fact := range f.Clone().AppendAll(nil) {
			out = append(out, fact.Key())
		}
		return out
	}
	return maintState{full: keys(m.full), view: keys(m.view)}
}

// TestMaintainerNextLeavesReceiver pins that a maintainer is a value:
// two concurrent Next calls from one receiver give equal view deltas
// and full sets, and leave the receiver's full set and view as they
// were, while goals answered over the receiver beside the running Next
// calls see its state throughout.
func TestMaintainerNextLeavesReceiver(t *testing.T) {
	goals := map[string]string{
		"counting":       `?- same(a: X, b: Y).`,
		"mixed-fallback": `?- unreach(a: X, b: Y).`,
	}
	for _, tc := range ivmPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := tryBuild(ivmSchema, tc.rules, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			src, ok := goals[tc.name]
			if !ok {
				src = `?- tc(src: X, dst: Y).`
			}
			goal, err := parser.ParseGoal(src)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			const n = 6
			base := randomEdgeFacts(n, 10, 1)
			for i := 0; i < n; i++ {
				base.Add(ivmNode(i))
			}
			e0 := base.Clone()
			e0.Freeze()
			m, err := NewMaintainer(prog, e0, 0)
			if err != nil {
				t.Fatal(err)
			}
			// The rebuilt view is frozen, as every successor's is: the
			// concurrent Next calls below only read it.
			if !m.view.frozen || !m.full.frozen {
				t.Fatal("the rebuilt view or full set is not frozen")
			}
			for commit := 0; commit < 8; commit++ {
				adds, removes := randomCommit(r, base, n)
				newE := base.Clone()
				newE.Freeze()
				before := readMaintState(m)
				want, err := m.Program().Query(m.Full(), goal)
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						got, err := m.Program().Query(m.Full(), goal)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Errorf("commit %d: a goal over the receiver changed during Next (err = %v)", commit, err)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
				// Two steps from one receiver run at once, as two
				// attempts against one snapshot do.
				var n2 *Maintainer
				var vd2 *ViewDelta
				var err2 error
				wg.Add(1)
				go func() {
					defer wg.Done()
					n2, vd2, err2 = m.Next(adds, removes, newE, 0)
				}()
				n1, vd1, err := m.Next(adds, removes, newE, 0)
				close(stop)
				wg.Wait()
				if err != nil || err2 != nil {
					t.Fatal(err, err2)
				}
				if !reflect.DeepEqual(vd1, vd2) || !n1.Full().Equal(n2.Full()) {
					t.Fatalf("commit %d: two Next calls from one receiver disagree", commit)
				}
				if after := readMaintState(m); !reflect.DeepEqual(after, before) {
					t.Fatalf("commit %d: Next changed its receiver", commit)
				}
				m = n1
			}
		})
	}
}
